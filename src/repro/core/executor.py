"""Speculative block execution: privatized contexts and virtual-time charging.

One :class:`ProcessorState` holds everything a processor accumulates during a
speculative stage: private views and shadows of the tested arrays, reduction
partials, and measured per-iteration times (fed back to the load balancer).
:func:`execute_block` runs a contiguous block of iterations through a
:class:`SpeculativeContext` and charges the machine's timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.loopir.context import IterationContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.checkpoint import CheckpointManager
from repro.machine.machine import Machine
from repro.machine.memory import (
    DensePrivateView,
    PrivateView,
    SparsePrivateView,
    make_private_view,
)
from repro.machine.timeline import Category
from repro.shadow import ShadowArray, make_shadow
from repro.shadow.dense import DenseShadow
from repro.shadow.marklist import IterationMarks
from repro.shadow.sparse import SparseShadow
from repro.util.blocks import Block


class BlockCancelled(Exception):
    """Internal control flow: a cooperative cancellation flag was observed
    at an iteration boundary (:func:`execute_block`'s ``cancel``).

    The threads backend's supervisor cannot SIGKILL an overdue worker the
    way the process supervisors do, so it sets the worker's cancel flag
    and the block aborts itself at the next iteration boundary -- the
    granularity at which the GIL-releasing kernel calls return control.
    The raiser has *not* cleaned up: partial private state and untested
    writes are still in place, exactly like a block cut short by SIGKILL,
    and the supervisor rolls them back before re-dispatching.
    """

    def __init__(self, proc: int, iteration: int) -> None:
        self.proc = proc
        self.iteration = iteration
        super().__init__(
            f"block on proc {proc} cancelled before iteration {iteration}"
        )


@dataclass
class ProcessorState:
    """Per-processor speculative state for one stage."""

    proc: int
    views: dict[str, PrivateView]
    shadows: dict[str, ShadowArray]
    partials: dict[str, dict[int, object]] = field(default_factory=dict)
    iter_times: dict[int, float] = field(default_factory=dict)
    """Measured per-iteration time incl. marking/copy-in (balancer input)."""
    iter_work: dict[int, float] = field(default_factory=dict)
    """Useful-work-only per-iteration time (sequential-time accounting)."""
    executed: list[Block] = field(default_factory=list)

    def distinct_refs(self) -> int:
        return sum(shadow.distinct_refs() for shadow in self.shadows.values())

    def n_written(self) -> int:
        written = sum(view.n_written() for view in self.views.values())
        written += sum(len(p) for p in self.partials.values())
        return written

    def reset(self) -> None:
        """Discard private data and marks (between recursive stages)."""
        for view in self.views.values():  # hot-path: per array
            view.reset()
        for shadow in self.shadows.values():  # hot-path: per array
            shadow.reset()
        self.partials.clear()
        self.executed.clear()
        # iter_times persist: the balancer wants the latest measurement of
        # every iteration regardless of which stage finally committed it.

    def preload(self, machine: "Machine", skip: frozenset[str] = frozenset()) -> int:
        """Pre-initialize this processor's dense private views by bulk copy
        (the ``pre_initialize`` configuration option); charges the copy to
        the processor.  Reduction arrays are skipped -- their partials
        start at the operator identity, never at the shared values."""
        total = 0
        for name, view in self.views.items():  # hot-path: per array
            if name in skip:
                continue
            total += view.preload()
        if total:
            machine.charge(
                self.proc,
                Category.COPY_IN,
                machine.costs.bulk_copy_per_elem * total,
            )
        return total


def make_processor_state(machine: Machine, loop: SpeculativeLoop, proc: int) -> ProcessorState:
    """Allocate views and shadows for every tested array of ``loop``."""
    views: dict[str, PrivateView] = {}
    shadows: dict[str, ShadowArray] = {}
    for spec in loop.arrays:  # hot-path: per array
        if not spec.tested:
            continue
        shared = machine.memory[spec.name]
        views[spec.name] = make_private_view(shared, sparse=spec.sparse)
        shadows[spec.name] = make_shadow(len(shared), sparse=spec.sparse)
    return ProcessorState(proc=proc, views=views, shadows=shadows)


def make_plain_state(proc: int) -> ProcessorState:
    """Processor state with no views and no shadows: every access takes the
    direct-shared-memory path with zero marking/copy-in charges (the
    certified-DOALL fast path of :mod:`repro.core.fastpath`)."""
    return ProcessorState(proc=proc, views={}, shadows={})


def make_all_private_state(machine: Machine, loop: SpeculativeLoop, proc: int) -> ProcessorState:
    """Processor state where *every* array is privatized, untested ones
    included (side-effect-free execution: the induction recipe's range
    collection must keep even untested writes out of shared memory, their
    indices are provisional)."""
    views: dict[str, PrivateView] = {}
    shadows: dict[str, ShadowArray] = {}
    for spec in loop.arrays:  # hot-path: per array
        shared = machine.memory[spec.name]
        views[spec.name] = make_private_view(shared, sparse=spec.sparse)
        shadows[spec.name] = make_shadow(len(shared), sparse=spec.sparse)
    return ProcessorState(proc=proc, views=views, shadows=shadows)


#: Fold slots of the categories a speculative block charges.
_WORK, _MARK, _COPY_IN, _CHECKPOINT = range(4)
_SLOT_CATEGORY = (Category.WORK, Category.MARK, Category.COPY_IN, Category.CHECKPOINT)

#: Lane kinds (first field of a lane tuple, see ``SpeculativeContext``).
_DENSE, _SPARSE, _UNTESTED, _GENERIC = range(4)

#: ``_BITS[k]`` is the Python int with only bit ``k`` set; indexing it with
#: ``index & 63`` keeps the word arithmetic in Python ints even when the
#: body passes a numpy integer index.
_BITS = tuple(1 << k for k in range(64))

_ABSENT = object()


def _out_of_range(name: str, index: int, n: int) -> IndexError:
    return IndexError(f"element {index} of {name!r} out of range [0, {n})")


class SpeculativeContext(IterationContext):
    """Execution context for one processor during one speculative block.

    Tested arrays go through private views with shadow marking and on-demand
    copy-in; untested arrays are written to shared memory under checkpoint.

    **Access lanes.**  The constructor binds one lane per array: a tuple of
    the storage an access to it touches.  ``load`` and ``store`` do the
    view, shadow and checkpoint work inline on that storage instead of
    calling into the objects that own it:

    * dense tested -- the :class:`~repro.machine.memory.DensePrivateView`
      values (numpy, so loads keep returning numpy scalars), its ``have``
      and ``written`` flags and the four
      :class:`~repro.shadow.dense.DenseShadow` word planes, the latter
      through memoryviews over the same storage (shm arenas,
      analysis and commit see the same bytes);
    * sparse tested -- the view's dict and set and the shadow's four sets;
    * untested -- the shared data array and, under a
      :class:`~repro.machine.checkpoint.CheckpointManager` with an open
      stage, its per-array ``writers`` and ``saved`` dicts
      (:meth:`~repro.machine.checkpoint.CheckpointManager.store_lane`);
      a checkpoint subclass (the pool backends' charge-free capture
      checkpoint) keeps its own ``note_write``;
    * generic -- custom views or shadows and reduction arrays call the
      owning objects' methods.

    Every lane performs the operations and charges the methods would, in
    the same order, and raises the same exception types (an index outside
    a tested array raises ``IndexError`` before anything is marked).
    :meth:`release_lanes` releases the memoryviews when the block ends.

    Virtual time is folded, not charged per access: each category's charges
    add into a block-local sum seeded, on the category's first charge, from
    the processor's current stage row (``charge_row``), and
    :meth:`flush_charges` writes every sum back once, in first-appearance
    order.  Those are the additions, in the order, that per-access
    ``row[category] += amount`` performs -- and the ``per_proc`` key order
    it builds -- so the timeline is bit-identical to per-access charging,
    also when the row already holds charges from a preload or an earlier
    block on the same processor.  A zero-started sum added once at the end
    would round differently.  The row is read at the first charge and
    created only by the flush, so a context may be built before its stage
    begins, a processor that charged nothing gains no row, and a block
    that raises writes no charges.
    """

    __slots__ = (
        "_machine",
        "_proc",
        "_pbit",
        "_views",
        "_shadows",
        "_partials",
        "_reductions",
        "_lanes",
        "_ckpt",
        "_inductions",
        "_iter_marks",
        "_iter_time",
        "_iter_work",
        "_costs",
        "_slowdown",
        "_mark",
        "_copy_in",
        "_sums",
        "_order",
        "_seeds",
        "_untested_log",
        "_m_marks",
        "_m_copyin",
        "_m_ckpt",
        "exit_iteration",
        "fault",
        "fault_permanent",
    )

    def __init__(
        self,
        machine: Machine,
        loop: SpeculativeLoop,
        state: ProcessorState,
        checkpoints: CheckpointManager | None,
        inductions: dict[str, int] | None = None,
        slowdown: float = 1.0,
        untested_log=None,
    ) -> None:
        super().__init__()
        self._machine = machine
        self._proc = state.proc
        self._pbit = 1 << state.proc
        self._views = state.views
        self._shadows = state.shadows
        self._partials = state.partials
        self._reductions = loop.reductions
        self._ckpt = checkpoints
        self._inductions = dict(inductions or {})
        # Optional per-iteration mark sink (DDG extraction); maps array name
        # to the current iteration's IterationMarks.
        self._iter_marks: dict[str, IterationMarks] | None = None
        self._iter_time = 0.0
        self._iter_work = 0.0
        costs = self._costs = machine.costs
        # Straggler fault: every charge of this block is stretched by the
        # multiplier, but iter_work stays nominal -- the useful work done
        # is unchanged, only the time to do it grows.
        self._slowdown = slowdown
        self._mark = costs.mark * slowdown
        self._copy_in = costs.copy_in * slowdown
        # The fold: per-slot sums (None until seeded), the slots in
        # first-appearance order, and the stage row the seeds come from.
        self._sums: list[float | None] = [None] * len(_SLOT_CATEGORY)
        self._order: list[int] = []
        self._seeds: dict[Category, float] | None = None
        # Self-check: per-stage recorder of untested-array traffic.
        self._untested_log = untested_log
        # Metrics accumulators: plain slot updates on the hot paths, folded
        # into the registry once per block (flush_metrics) -- and only when
        # metrics are on, so the disabled cost is one integer add per access.
        self._m_marks = 0
        self._m_copyin: dict[str, int] = {}
        self._m_ckpt: dict[str, int] = {}
        self._lanes: dict[str, tuple] = {}
        for name in machine.memory.names():  # hot-path: per array
            self._lanes[name] = self._build_lane(name)
        self.exit_iteration: int | None = None
        self.fault: str | None = None
        """Fault class that aborted this block (``None`` = ran clean)."""
        self.fault_permanent = False
        """A fail-stop fault removed the processor for good."""

    # -- access lanes -----------------------------------------------------------

    def _build_lane(self, name: str) -> tuple:
        """The lane of array ``name`` (raises the memory image's named
        ``KeyError`` for an undeclared array)."""
        data = self._machine.memory[name].data
        if name in self._reductions:
            return (_GENERIC, None, None)
        view = self._views.get(name)
        if view is not None:
            shadow = self._shadows[name]
            n = len(data)
            if type(view) is DensePrivateView and type(shadow) is DenseShadow:
                return (
                    _DENSE, n, data, view._values,
                    memoryview(view._have), memoryview(view._written),
                    memoryview(shadow.write_bits.words),
                    memoryview(shadow.exposed_bits.words),
                    memoryview(shadow.any_read_bits.words),
                )
            if type(view) is SparsePrivateView and type(shadow) is SparseShadow:
                return (
                    _SPARSE, n, data, view._values, view._written,
                    shadow._write, shadow._exposed, shadow._any_read,
                )
            return (_GENERIC, view, shadow)
        ckpt = self._ckpt
        if ckpt is None or name not in ckpt.name_set:
            return (_UNTESTED, data, None, None, None, None)
        parts = ckpt.store_lane(name) if type(ckpt) is CheckpointManager else None
        if parts is None:
            # The manager's own note_write: a subclass's policy, or the
            # error of a checkpoint stage that was never opened.
            return (_UNTESTED, data, ckpt, None, None, None)
        return (_UNTESTED, data, ckpt, *parts)

    def _lane(self, name: str) -> tuple:
        """Build a lane missing from the table: an array nobody declared
        (raises), or any access after :meth:`release_lanes`."""
        lane = self._lanes[name] = self._build_lane(name)
        return lane

    def release_lanes(self) -> None:
        """Release the lanes' memoryviews, so buffers they export (shm
        segments) can close; a later access rebuilds its lane."""
        for lane in self._lanes.values():  # hot-path: per array
            if lane[0] == _DENSE:
                for buffer in lane[4:]:  # hot-path: its five memoryviews
                    buffer.release()
        self._lanes = {}

    # -- results read by the drivers ---------------------------------------------

    def induction_values(self) -> dict[str, int]:
        return dict(self._inductions)

    # -- the charge fold --------------------------------------------------------

    def _charge(self, slot: int, charged: float) -> None:
        """Fold one charge (already stretched by the slowdown) into the
        block's sum for ``slot``.  Zero charges are skipped, as
        ``Machine.charge`` skips them: they must not create a row key.
        ``load``, ``store``, ``work`` and ``execute_block`` inline these
        lines; ``update`` and the bulk accesses call it."""
        if charged:
            sums = self._sums
            total = sums[slot]
            sums[slot] = (self._seed(slot) if total is None else total) + charged
            self._iter_time += charged

    def _seed(self, slot: int) -> float:
        seeds = self._seeds
        if seeds is None:
            # Read, not created: a block cancelled before its flush must
            # leave no row behind.
            seeds = self._seeds = self._machine.charge_row(self._proc) or {}
        self._order.append(slot)
        return seeds.get(_SLOT_CATEGORY[slot], 0.0)

    def flush_charges(self) -> None:
        """Write the block's per-category sums back to the stage row, in
        first-appearance order, and restart the fold (a later charge
        re-seeds from the written row, so flushing twice is harmless)."""
        if not self._order:
            return
        row = self._machine.charge_row(self._proc, create=True)
        sums = self._sums
        for slot in self._order:  # hot-path: once per category per block
            row[_SLOT_CATEGORY[slot]] = sums[slot]
        self._sums = [None] * len(_SLOT_CATEGORY)
        self._order = []
        self._seeds = None

    # -- memory access ----------------------------------------------------------

    def _reject_reduction(self, name: str) -> None:
        raise ValueError(
            f"array {name!r} is declared a reduction; use update() only"
        )

    def load(self, name: str, index: int):
        try:
            lane = self._lanes[name]
        except KeyError:
            lane = self._lane(name)
        kind = lane[0]
        if kind == _UNTESTED:
            # Untested array: direct shared read, no instrumentation.
            if self._untested_log is not None:
                self._untested_log.note_read(self._proc, name, index)
            return lane[1][index]
        if kind == _DENSE:
            _, n, data, values, have, _, write, exposed, any_read = lane
            if not 0 <= index < n:
                raise _out_of_range(name, index, n)
            if have[index]:
                value = values[index]
                copied_in = False
            else:
                value = values[index] = data[index]
                have[index] = True
                copied_in = True
            word = index >> 6
            bit = _BITS[index & 63]
            any_read[word] |= bit
            if not write[word] & bit:
                exposed[word] |= bit
        elif kind == _SPARSE:
            _, n, data, values, _, write, exposed, any_read = lane
            if not 0 <= index < n:
                raise _out_of_range(name, index, n)
            value = values.get(index, _ABSENT)
            copied_in = value is _ABSENT
            if copied_in:
                value = values[index] = data[index]
            any_read.add(index)
            if index not in write:
                exposed.add(index)
        else:
            if name in self._reductions:
                self._reject_reduction(name)
            value, copied_in = lane[1].load(index)
            lane[2].mark_read(index)
        self._m_marks += 1
        charged = self._mark
        if charged:
            sums = self._sums
            total = sums[_MARK]
            sums[_MARK] = (self._seed(_MARK) if total is None else total) + charged
            self._iter_time += charged
        if copied_in:
            self._m_copyin[name] = self._m_copyin.get(name, 0) + 1
            charged = self._copy_in
            if charged:
                sums = self._sums
                total = sums[_COPY_IN]
                sums[_COPY_IN] = (
                    self._seed(_COPY_IN) if total is None else total
                ) + charged
                self._iter_time += charged
        if self._iter_marks is not None:
            self._iter_marks[name].mark_read(index)
        return value

    def store(self, name: str, index: int, value) -> None:
        try:
            lane = self._lanes[name]
        except KeyError:
            lane = self._lane(name)
        kind = lane[0]
        if kind == _UNTESTED:
            _, data, ckpt, writers, saved, source = lane
            if self._untested_log is not None:
                self._untested_log.note_write(self._proc, name, index)
            if ckpt is not None:
                if writers is None:
                    fresh = ckpt.note_write(self._proc, name, index)
                else:
                    # CheckpointManager.note_write, on its bound dicts.
                    writers[index] = writers.get(index, 0) | self._pbit
                    fresh = 0
                    if index not in saved:
                        saved[index] = source[index]
                        if ckpt.on_demand:
                            ckpt.elements_checkpointed += 1
                            fresh = 1
                if fresh:
                    self._m_ckpt[name] = self._m_ckpt.get(name, 0) + fresh
                    charged = self._costs.checkpoint_per_elem * fresh * self._slowdown
                    if charged:
                        sums = self._sums
                        total = sums[_CHECKPOINT]
                        sums[_CHECKPOINT] = (
                            self._seed(_CHECKPOINT) if total is None else total
                        ) + charged
                        self._iter_time += charged
            data[index] = value
            return
        if kind == _DENSE:
            _, n, _, values, have, written, write, _, _ = lane
            if not 0 <= index < n:
                raise _out_of_range(name, index, n)
            values[index] = value
            have[index] = True
            written[index] = True
            write[index >> 6] |= _BITS[index & 63]
        elif kind == _SPARSE:
            _, n, _, values, written, write, _, _ = lane
            if not 0 <= index < n:
                raise _out_of_range(name, index, n)
            values[index] = value
            written.add(index)
            write.add(index)
        else:
            if name in self._reductions:
                self._reject_reduction(name)
            lane[1].store(index, value)
            lane[2].mark_write(index)
        self._m_marks += 1
        charged = self._mark
        if charged:
            sums = self._sums
            total = sums[_MARK]
            sums[_MARK] = (self._seed(_MARK) if total is None else total) + charged
            self._iter_time += charged
        if self._iter_marks is not None:
            self._iter_marks[name].mark_write(index, value)

    def update(self, name: str, index: int, value) -> None:
        op = self._reductions.get(name)
        if op is None:
            raise ValueError(f"array {name!r} has no declared reduction operator")
        partial = self._partials.setdefault(name, {})
        partial[index] = op.combine(partial.get(index, op.identity), value)
        self._shadows[name].mark_update(index)
        self._m_marks += 1
        self._charge(_MARK, self._mark)
        if self._iter_marks is not None:
            self._iter_marks[name].mark_update(index)

    # -- bulk memory access -------------------------------------------------------

    def load_many(self, name: str, indices) -> np.ndarray:
        """Vectorized :meth:`load` over an index array of one tested array.

        Marking and charging are batched: one ``mark_read_many`` on the
        shadow, one MARK charge of ``mark * len(indices)``, one COPY_IN
        charge for the distinct elements actually copied in.  Semantically
        a single bulk read: every index sees the current private state,
        none of this batch's own side effects.
        """
        if name in self._reductions:
            self._reject_reduction(name)
        idx = np.asarray(indices, dtype=np.int64)
        view = self._views.get(name)
        if view is None:
            return np.array([self.load(name, int(i)) for i in idx])
        values, copied = view.load_many(idx)
        self._shadows[name].mark_read_many(idx)
        self._m_marks += len(idx)
        self._charge(_MARK, self._costs.mark * len(idx) * self._slowdown)
        if copied:
            self._m_copyin[name] = self._m_copyin.get(name, 0) + copied
            self._charge(_COPY_IN, self._costs.copy_in * copied * self._slowdown)
        if self._iter_marks is not None:
            marks = self._iter_marks[name]
            # hot-path: DDG extraction only; the iteration's mark levels
            # are per-element Python objects.
            for i in idx.tolist():
                marks.mark_read(i)
        return values

    def store_many(self, name: str, indices, values) -> None:
        """Vectorized :meth:`store` over parallel index/value arrays.

        Later duplicates win, matching the scalar loop.  One
        ``mark_write_many`` on the shadow, one batched MARK charge.
        """
        if name in self._reductions:
            self._reject_reduction(name)
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values)
        view = self._views.get(name)
        if view is None:
            # hot-path: untested arrays write through one element at a
            # time so each first touch is checkpointed and charged.
            for i, v in zip(idx.tolist(), vals):
                self.store(name, i, v)
            return
        view.store_many(idx, vals)
        self._shadows[name].mark_write_many(idx)
        self._m_marks += len(idx)
        self._charge(_MARK, self._costs.mark * len(idx) * self._slowdown)
        if self._iter_marks is not None:
            marks = self._iter_marks[name]
            # hot-path: DDG extraction only; the iteration's mark levels
            # are per-element Python objects.
            for i, v in zip(idx.tolist(), vals):
                marks.mark_write(i, v)

    # -- induction ---------------------------------------------------------------

    def bump(self, name: str) -> int:
        if name not in self._inductions:
            raise KeyError(
                f"induction variable {name!r} not initialized for this stage"
            )
        value = self._inductions[name]
        self._inductions[name] = value + 1
        return value

    def peek(self, name: str) -> int:
        return self._inductions[name]

    # -- costs ----------------------------------------------------------------

    def work(self, units: float) -> None:
        if units < 0:
            raise ValueError("work units must be non-negative")
        amount = units * self._costs.omega
        self._iter_work += amount
        charged = amount * self._slowdown
        if charged:
            sums = self._sums
            total = sums[_WORK]
            sums[_WORK] = (self._seed(_WORK) if total is None else total) + charged
            self._iter_time += charged

    # -- premature exit -----------------------------------------------------------

    def exit_loop(self) -> None:
        if self.exit_iteration is None:
            self.exit_iteration = self.iteration

    # -- metrics ------------------------------------------------------------------

    def flush_metrics(self, registry, iterations: int) -> None:
        """Fold this block's accumulated counts into ``registry``.

        Called once per block (never per access); byte counts derive from
        the shared arrays' element sizes so "how much data moved" is
        reportable without touching the hot paths.
        """
        registry.counter("shadow.marks").inc(self._m_marks)
        memory = self._machine.memory
        for name, n in self._m_copyin.items():  # hot-path: per array
            registry.counter("shadow.copy_in.elements").inc(n)
            registry.counter("shadow.copy_in.bytes").inc(
                n * memory[name].data.itemsize
            )
        for name, n in self._m_ckpt.items():  # hot-path: per array
            registry.counter("checkpoint.saved.elements").inc(n)
            registry.counter("checkpoint.saved.bytes").inc(
                n * memory[name].data.itemsize
            )
        registry.counter("exec.blocks").inc()
        registry.histogram("exec.block_iterations").observe(iterations)
        if self.fault is not None:
            registry.counter("faults.blocks_hit").inc()


def execute_block(
    machine: Machine,
    loop: SpeculativeLoop,
    state: ProcessorState,
    block: Block,
    checkpoints: CheckpointManager | None,
    inductions: dict[str, int] | None = None,
    marklists: dict[str, "object"] | None = None,
    injector=None,
    stage: int = 0,
    untested_log=None,
    slowdown: float | None = None,
    death: tuple[int, bool] | None = None,
    cancel=None,
) -> SpeculativeContext:
    """Run ``block``'s iterations on ``block.proc``, charging virtual time
    through the context's per-block fold (written back once, at the end).

    ``marklists`` (array name -> :class:`~repro.shadow.marklist.MarkList`)
    switches on iteration-level marking for DDG extraction.  Returns the
    context so callers can read final induction values.

    ``injector`` (a :class:`~repro.faults.injector.FaultInjector`) arms
    this block for fault injection under the driver's stage counter
    ``stage``: a planned straggler stretches every charge, and a planned
    fail-stop kills the processor at an iteration boundary mid-block --
    the context comes back with ``ctx.fault`` set and the partial work
    (including untested writes, already logged by the checkpoint) awaiting
    the driver's rollback.  ``untested_log`` records untested-array
    traffic for the self-check isolation verifier.

    The pool execution backends query the injector in the parent and
    passes the pre-resolved ``slowdown``/``death`` explicitly (worker
    processes have no injector); explicit values take precedence.

    ``cancel`` (an object with ``is_set()``, e.g. a ``threading.Event``)
    is the threads backend's cooperative hang-recovery hook: when it
    reads true at an iteration boundary the block raises
    :class:`BlockCancelled` without cleaning up, leaving rollback to the
    supervisor.  ``None`` (every other caller) costs one identity check
    per iteration.
    """
    if slowdown is None:
        slowdown = 1.0
        if injector is not None:
            slowdown = injector.slowdown(stage, block.proc)
    if death is None and injector is not None:
        death = injector.fail_stop_point(stage, block.proc, len(block))
    ctx = SpeculativeContext(
        machine, loop, state, checkpoints, inductions,
        slowdown=slowdown, untested_log=untested_log,
    )
    omega = machine.costs.omega
    work_of = None if loop.iter_work is None else loop.work_of
    body = loop.body
    iter_times = state.iter_times
    iter_work = state.iter_work
    sums = ctx._sums
    completed = 0
    try:
        # hot-path: the iteration loop itself; each iteration runs the body.
        for i in block.iterations():
            if cancel is not None and cancel.is_set():
                raise BlockCancelled(block.proc, i)
            if death is not None and completed >= death[0]:
                # Fail-stop: the processor dies here; everything it did this
                # stage (private state, untested writes) is garbage to roll
                # back, and any exit it signalled cannot be trusted.
                ctx.fault = "fail-stop"
                ctx.fault_permanent = death[1]
                break
            ctx.iteration = i
            if marklists is not None:
                ctx._iter_marks = {
                    name: ml.open_level(i) for name, ml in marklists.items()
                }
            # The base WORK charge, folded inline; both per-iteration sums
            # start from 0.0, as the body's own charges continue them.
            amount = omega if work_of is None else work_of(i) * omega
            ctx._iter_work = 0.0 + amount
            charged = amount * slowdown
            if charged:
                total = sums[_WORK]
                sums[_WORK] = (ctx._seed(_WORK) if total is None else total) + charged
            ctx._iter_time = 0.0 + charged
            body(ctx, i)
            iter_times[i] = ctx._iter_time
            iter_work[i] = ctx._iter_work
            completed += 1
            if ctx.exit_iteration is not None:
                # The iteration that signalled the exit completes; the rest
                # of the block never executes (speculatively validated later).
                break
        # A block that raised (cancelled, or a body error) never gets here:
        # like a killed worker's, its charges are not written.
        ctx.flush_charges()
    finally:
        ctx.release_lanes()
    state.executed.append(block)
    metrics = getattr(machine, "metrics", None)
    if metrics is not None and metrics.enabled:
        ctx.flush_metrics(metrics, completed)
    return ctx
