"""Execution backends: where a stage's speculative blocks actually run.

The paper's central property is that every speculative stage is an
embarrassingly parallel doall -- each block runs on privatized storage with
no cross-block communication until the analysis phase.  The backend layer
exploits that: the :class:`StageEngine` hands the stage's blocks to a
backend as :class:`BlockTask` descriptors and receives :class:`BlockOutcome`
objects back, without caring *where* the blocks ran.

Three backends are provided:

* ``serial`` (the default) executes blocks one after another in-process,
  exactly the pre-backend behavior.
* ``shm`` (:mod:`repro.core.shm`, registered lazily) runs a persistent
  pool of forked worker processes over a zero-copy shared-memory data
  plane, the paper's shared-memory multiprocessor setting: the memory
  image and the dense private views/shadow bit planes live in shared
  segments, and the pipes carry only struct-packed task descriptors and
  outcome headers.
* ``threads`` (:mod:`repro.core.threads`, registered lazily) runs a
  persistent pool of worker *threads* directly against the engine's own
  processor states and shared memory -- no fork, no pipes, no pickling.
  The hot loops are GIL-releasing :mod:`repro.kernels` calls (and truly
  concurrent on free-threaded CPython builds).

Both pools report each block as a :class:`BlockDelta` -- folded
per-category timeline charges, a metrics snapshot, untested-write
captures and the fault/exit outcome -- and :func:`fold_delta` replays
those **in block order**, so results, events and virtual-time accounting
are bit-identical to serial execution (enforced by running the golden
parity suite under every backend).

Bit-exactness rests on two invariants the engine's strategies uphold:

* every strategy schedules at most **one block per processor per stage**
  (blocked drivers by construction, the sliding window assigns its window
  blocks to distinct processors), so a processor's execution-phase charges
  all come from a single block and the worker's per-category sums replay
  to the same floats the serial in-order accumulation produces;
* untested arrays obey the statically-analyzable isolation contract (no
  cross-processor element sharing within a stage -- what ``--self-check``
  verifies), so replaying each block's untested writes in block order
  reproduces the serial interleaving.

Fault injection is handled by *hoisting*: the parent resolves each block's
straggler slowdown and fail-stop point before dispatch (workers carry no
injector), which matches serial query-time state because processors
marked dead are never scheduled again.

A pool that is beyond repair raises
:class:`~repro.core.supervise.PoolDegradation` and the engine finishes the
run on ``serial``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.executor import execute_block, make_all_private_state
from repro.errors import BackendError, ConfigurationError
from repro.kernels import get_kernels
from repro.machine.checkpoint import CheckpointManager
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.obs.metrics import NULL_REGISTRY
from repro.util.blocks import Block

# -- default-backend selection ---------------------------------------------------

DEFAULT_BACKEND = "serial"

_default_backend = DEFAULT_BACKEND


def get_default_backend() -> str:
    """Backend used when ``RuntimeConfig.backend`` is ``None``."""
    return _default_backend


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (``use_backend`` scopes it)."""
    global _default_backend
    _ensure_registered()
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; known: {', '.join(backend_names())}"
        )
    _default_backend = name


@contextlib.contextmanager
def use_backend(name: str):
    """Scope the default backend: every run started inside the ``with``
    whose config leaves ``backend=None`` uses ``name``.  Lets existing
    entry points (and the golden parity suite) run under a pool backend
    without threading a parameter through every call."""
    previous = _default_backend
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def resolve_backend_name(config) -> str:
    """The backend a config resolves to (explicit setting or the default)."""
    name = getattr(config, "backend", None)
    return name if name is not None else _default_backend


# -- task / outcome descriptors ---------------------------------------------------


@dataclass
class BlockTask:
    """One block of one stage, as handed to an execution backend."""

    stage: int
    pos: int
    block: Block
    inductions: dict[str, int] | None = None
    marklists: dict | None = None
    extras: dict = field(default_factory=dict)
    preload: bool = False
    all_private: bool = False
    """Run on a fully privatized state with no checkpoint or injector (the
    induction recipe's side-effect-free range collection)."""
    plain: bool = False
    """Certified fast path (:mod:`repro.core.fastpath`): run on a plain
    processor state with no views and no shadows, so every access takes
    the direct-shared-memory path -- no marking, no copy-in, no
    checkpoint charges.  Pool workers still capture the
    written ``(indices, values)`` through a charge-free
    :class:`_CaptureCheckpoint` so direct writes ship back to the
    parent (and roll back under cancellation) exactly like untested
    writes."""
    log_untested: bool = False
    use_injector: bool = True
    slowdown: float = 1.0
    death: tuple[int, bool] | None = None
    collect_metrics: bool = False
    """Accumulate a metrics snapshot for this block (pool workers use a
    private registry, shipped back in the delta)."""
    collect_spans: bool = False
    """Measure per-block host/virtual timings for the span layer."""


@dataclass
class BlockOutcome:
    """What the engine needs to know after a block executed."""

    pos: int
    block: Block
    fault: str | None = None
    fault_permanent: bool = False
    exit_iteration: int | None = None
    inductions: dict[str, int] = field(default_factory=dict)
    host_start: float = 0.0
    """Run-relative host seconds at block start (``collect_spans`` only)."""
    host_dur: float = 0.0
    virt_dur: float = 0.0
    """This block's summed virtual-time charges (``collect_spans`` only)."""

    def induction_values(self) -> dict[str, int]:
        return dict(self.inductions)


# -- backends ---------------------------------------------------------------------


class ExecutionBackend:
    """Executes the blocks of one stage and merges results into the engine."""

    name = ""

    def __init__(self, eng) -> None:
        self.eng = eng

    def run_blocks(self, tasks: list[BlockTask]) -> list[BlockOutcome]:
        """Execute all tasks; return outcomes ordered by block position.

        Post-condition, regardless of backend: the engine's processor
        states, checkpoint manager, untested-access log, shared memory and
        timeline are exactly as if the blocks had run serially in-process.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent."""

    def resource_info(self) -> dict:
        """Operational snapshot for the host resource sampler.

        Purely informational (never affects execution): ``worker_pids``
        are OS process ids the sampler should read ``/proc`` stats for,
        ``shm_bytes`` the bytes currently held in shared-memory
        segments, ``inflight`` the blocks dispatched but not yet
        collected, ``queue_depths`` any per-worker queue backlogs.
        Backends override what they know; the base backend runs
        everything in-process and holds nothing.
        """
        return {
            "worker_pids": [],
            "shm_bytes": 0,
            "inflight": 0,
            "queue_depths": [],
        }


class SerialBackend(ExecutionBackend):
    """In-process, one-block-after-another execution (the default)."""

    name = "serial"

    def run_blocks(self, tasks: list[BlockTask]) -> list[BlockOutcome]:
        eng = self.eng
        # Backend-level, not per-task: strategies build their own tasks
        # (pre-stage doalls) and must not need to know about span tracing.
        collect_spans = getattr(eng, "spans_enabled", False)
        outcomes = []
        for task in tasks:
            block = task.block
            if task.all_private:
                state = make_all_private_state(eng.machine, eng.loop, block.proc)
                ckpt = injector = untested_log = None
            else:
                eng.strategy.before_block(eng, block)
                state = eng.states[block.proc]
                ckpt = eng.ckpt
                injector = eng.injector if task.use_injector else None
                untested_log = eng.untested_log if task.log_untested else None
            if collect_spans:
                record = eng.machine.timeline.current
                virt_before = record.proc_time(block.proc)
                host_before = eng.host_now()
            ctx = execute_block(
                eng.machine, eng.loop, state, block, ckpt,
                inductions=task.inductions, marklists=task.marklists,
                injector=injector, stage=task.stage,
                untested_log=untested_log, **task.extras,
            )
            outcome = BlockOutcome(
                pos=task.pos, block=block, fault=ctx.fault,
                fault_permanent=ctx.fault_permanent,
                exit_iteration=ctx.exit_iteration,
                inductions=ctx.induction_values(),
            )
            if collect_spans:
                outcome.host_start = host_before
                outcome.host_dur = eng.host_now() - host_before
                outcome.virt_dur = record.proc_time(block.proc) - virt_before
            outcomes.append(outcome)
        return outcomes


# -- pool-backend helpers ---------------------------------------------------------


@dataclass
class BlockDelta:
    """The order-sensitive residue a pool worker reports about one block.

    Everything else a block produces either landed in its final location
    during execution (threads: the engine's own states; shm: adopted
    shared buffers) or is backend-specific payload the backend folds
    itself after :func:`fold_delta`.
    """

    pos: int
    charges: list[tuple[Category, float]]
    """Per-category charge sums, in first-appearance order."""
    fault: str | None = None
    fault_permanent: bool = False
    exit_iteration: int | None = None
    inductions: dict[str, int] = field(default_factory=dict)
    untested: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    """Captured untested (or plain direct) writes: ``(indices, values)``."""
    untested_reads: list[tuple[str, int]] = field(default_factory=list)
    untested_writes: list[tuple[str, int]] = field(default_factory=list)
    metrics: dict | None = None
    """Snapshot of the worker's private registry (``collect_metrics``)."""
    host_start: float = 0.0
    """Absolute ``perf_counter`` at block start (``collect_spans``),
    comparable across fork on POSIX (system-wide monotonic clock)."""
    host_dur: float = 0.0
    virt_dur: float = 0.0


def fold_delta(eng, task: BlockTask, delta: BlockDelta) -> BlockOutcome:
    """Replay one block's delta into the engine; callers go in block order.

    The shared head of every pool backend's merge: charge replay, metrics
    merge, outcome construction, span rebase, then the untested writes
    (through the parent's checkpoint manager, so rollback sees the serial
    write history) and the self-check access log.
    """
    machine = eng.machine
    block = task.block
    proc = block.proc
    for category, amount in delta.charges:
        machine.charge(proc, category, amount)
    if delta.metrics is not None:
        machine.metrics.merge(delta.metrics)
    outcome = BlockOutcome(
        pos=task.pos, block=block, fault=delta.fault,
        fault_permanent=delta.fault_permanent,
        exit_iteration=delta.exit_iteration,
        inductions=delta.inductions,
    )
    if task.collect_spans:
        # Worker clocks are absolute perf_counter readings; rebase onto
        # the engine's run-relative host clock.
        outcome.host_start = eng.rebase_host(delta.host_start)
        outcome.host_dur = delta.host_dur
        outcome.virt_dur = delta.virt_dur
    for name, (indices, values) in delta.untested.items():
        if eng.ckpt is not None:
            eng.ckpt.note_write_many(proc, name, indices)
        get_kernels().scatter(machine.memory[name].data, indices, values)
    if eng.untested_log is not None:
        for name, index in delta.untested_reads:
            eng.untested_log.note_read(proc, name, index)
        for name, index in delta.untested_writes:
            eng.untested_log.note_write(proc, name, index)
    return outcome


class _ChargeLog:
    """Duck-typed stand-in for :class:`~repro.machine.machine.Machine`
    inside a worker: same memory/costs/charge-row surface, but the block's
    one processor row is a local dict instead of a timeline row.  The
    parent replays its per-category sums (:func:`fold_delta`); with one
    block per processor per stage they land on an empty parent row, so
    the replay yields the floats and ``per_proc`` key order a serial run
    accumulates."""

    __slots__ = ("memory", "costs", "row", "metrics")

    def __init__(self, memory, costs) -> None:
        self.memory = memory
        self.costs = costs
        self.row: dict[Category, float] = {}
        self.metrics = NULL_REGISTRY

    def charge(self, proc: int, category: Category, amount: float) -> None:
        if amount:
            self.row[category] = self.row.get(category, 0.0) + amount

    def charge_row(self, proc: int, create: bool = False) -> dict[Category, float]:
        return self.row

    def proc_time(self) -> float:
        """Summed row, as :meth:`~repro.machine.timeline.StageRecord.proc_time`
        sums a serial row (block spans difference two readings)."""
        return sum(self.row.values())


def check_unique_procs(name: str, tasks: list[BlockTask]) -> None:
    """Enforce the one-block-per-processor-per-stage invariant every
    parallel backend's bit-exactness argument rests on (see the module
    docstring)."""
    procs = [task.block.proc for task in tasks]
    if len(set(procs)) != len(procs):
        raise BackendError(
            f"{name} backend needs at most one block per processor "
            f"per stage, got procs {procs}"
        )


def hoist_injection(eng, tasks: list[BlockTask]) -> None:
    """Resolve straggler/fail-stop faults parent-side, in block order.

    Matches serial query-time state exactly: the injector's dead set
    only grows with processors the engine removed from the alive pool,
    and those are never scheduled again, so a pre-dispatch query sees
    the same state an execution-time query would.
    """
    injector = eng.injector
    if injector is None:
        return
    for task in tasks:
        if not task.use_injector:
            continue
        task.slowdown = injector.slowdown(task.stage, task.block.proc)
        task.death = injector.fail_stop_point(
            task.stage, task.block.proc, len(task.block)
        )


class _CaptureCheckpoint(CheckpointManager):
    """Checkpoint that records old values but charges nothing.

    Certified plain tasks run with ``eng.ckpt = None``, so the parent-side
    charge profile has zero CHECKPOINT entries
    (:meth:`~repro.core.executor.SpeculativeContext.store` only charges
    when ``note_write`` reports a saved element).  Out-of-process workers
    still need the *bookkeeping* half of a checkpoint -- which elements
    this block wrote (to ship them home) and their old values (to roll the
    block back under cancellation or local restore).  Returning 0 from the
    ``note_write`` hooks keeps the capture while suppressing the charge.
    """

    def note_write(self, proc: int, name: str, index: int) -> int:
        super().note_write(proc, name, index)
        return 0

    def note_write_many(self, proc: int, name: str, indices) -> int:
        super().note_write_many(proc, name, indices)
        return 0


def capture_untested(
    ckpt: CheckpointManager, memory: MemoryImage, proc: int
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The ``(indices, values)`` a worker's block wrote under its local
    checkpoint, after which those writes are rolled back.

    The merge replays them through the parent's checkpoint manager
    (:func:`fold_delta`), which must read the pre-stage values as "old"
    for stage rollback to see the serial write history -- so memory has
    to hold those values again by the time the delta is folded.
    """
    untested = {}
    for name, indices in ckpt.modified_by([proc]).items():
        if indices:
            idx = np.asarray(indices, dtype=np.int64)
            untested[name] = (idx, get_kernels().gather(memory[name].data, idx))
    ckpt.restore_failed([proc])
    return untested


def make_capture_checkpoint(memory: MemoryImage) -> _CaptureCheckpoint:
    """Charge-free capture checkpoint over *every* array of ``memory``
    (plain tasks write shared memory directly, so any array may need
    rollback/shipping, not just the untested set)."""
    ckpt = _CaptureCheckpoint(memory, list(memory.names()), True)
    ckpt.begin_stage()
    return ckpt


class _AccessRecorder:
    """Worker-side stand-in for the self-check untested-access log."""

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads: set[tuple[str, int]] = set()
        self.writes: set[tuple[str, int]] = set()

    def note_read(self, proc: int, name: str, index: int) -> None:
        self.reads.add((name, index))

    def note_write(self, proc: int, name: str, index: int) -> None:
        self.writes.add((name, index))


def _shutdown_pool(workers: list, farewell) -> None:
    """Politely stop a worker pool, then escalate until it is gone:
    farewell message -> join -> ``terminate()`` (SIGTERM) -> join ->
    ``kill()`` (SIGKILL) -> reap.  A worker wedged in a signal handler or
    stopped by SIGSTOP ignores SIGTERM but cannot ignore SIGKILL, so no
    zombie survives close and no worker keeps ``/dev/shm`` segments
    mapped past the arena's unlink."""
    for _, conn in workers:
        try:
            farewell(conn)
        except (BrokenPipeError, OSError):
            pass
    for process, conn in workers:
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already broken
            pass


# -- registry ---------------------------------------------------------------------

BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
}

#: Backend modules registered lazily on first lookup (they import this
#: module, so eager registration here would be a cycle).
_LAZY_BACKEND_MODULES = ("repro.core.shm", "repro.core.threads")
_lazy_loaded = False


def _ensure_registered() -> None:
    global _lazy_loaded
    if _lazy_loaded:
        return
    _lazy_loaded = True
    import importlib

    for module in _LAZY_BACKEND_MODULES:
        importlib.import_module(module)


def backend_names() -> list[str]:
    _ensure_registered()
    return sorted(BACKENDS)


def make_backend(eng) -> ExecutionBackend:
    """Instantiate the backend an engine's config resolves to."""
    _ensure_registered()
    name = resolve_backend_name(eng.config)
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; known: "
            f"{', '.join(backend_names())}"
        ) from None
    return cls(eng)
