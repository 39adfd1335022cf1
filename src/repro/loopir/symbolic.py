"""Symbolic access analysis: probe a loop body and reason about its indices.

The certification front-end (:mod:`repro.model.certify`) needs to know a
loop's cross-iteration access pattern *before* committing to the
speculative machinery.  Loop bodies here are opaque Python callables, so
the analysis is observational: run iterations through a recording
:class:`ProbeContext` (sequential semantics over a scratch copy of the
shared image) and lift the observed ``load``/``store``/``update`` calls
into per-site access descriptions.

Two levels of evidence come out of a probe:

* **exact** -- every iteration was executed with sequential semantics, so
  the recorded trace *is* the loop's reference access stream (bodies are
  required to be deterministic functions of the values they load); any
  dependence statement derived from it is a proof for this instantiation.
* **affine** -- only a sample of iterations was executed, but every probed
  iteration issued the same call sequence and each call site's index fits
  ``index = stride * i + offset`` exactly.  The affine model then predicts
  all ``n`` iterations; the prediction is sound *if* the loop really is
  affine (a data-dependent subscript can masquerade as affine on a
  sample), which is why the runtime never acts on it.

A full probe may stop after a prefix of its iterations: the caller
passes a ``settled`` predicate, which :func:`probe_loop` applies once to
the scan of the first ``max(PREFIX_CHECK, n // 8)`` iterations (the
certifier stops once no later iteration can change its verdict).

The probe records its accesses as flat columns (:class:`AccessTrace`),
not as one object per access.  The dependence tests themselves
(:func:`trace_dependences`, :func:`affine_dependences`) are exact over
their respective inputs: the trace test groups the columns per element
and scans every group at once in numpy, the affine test intersects the
two index progressions over ``[0, n)`` and checks for a common element
touched at two different iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from repro.loopir.context import AccessRecord, IterationContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.memory import MemoryImage, SharedArray

#: Access-kind codes of an :class:`AccessTrace`'s ``kind`` column; the
#: code is the kind letter's position in :data:`KINDS`.
READ, WRITE, UPDATE = 0, 1, 2
KINDS = "rwu"


@dataclass(frozen=True, eq=False)
class AccessTrace:
    """A recorded access stream as flat columns, one row per access.

    Row order is the order the accesses were issued in.  ``array`` holds
    codes into ``names``; ``kind`` holds :data:`READ`/:data:`WRITE`/
    :data:`UPDATE`.  All four columns are ``int64`` arrays of one length.
    """

    iteration: np.ndarray
    kind: np.ndarray
    array: np.ndarray
    index: np.ndarray
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.iteration)

    @classmethod
    def from_rows(cls, rows: list[int], names: tuple[str, ...]) -> AccessTrace:
        """Columns from a flat ``[iteration, kind, array, index, ...]`` list."""
        flat = np.fromiter(rows, dtype=np.int64, count=len(rows))
        iteration, kind, array, index = flat.reshape(-1, 4).T.copy()
        return cls(iteration, kind, array, index, names)

    @classmethod
    def concat(cls, head: AccessTrace, tail: AccessTrace) -> AccessTrace:
        """``head``'s rows followed by ``tail``'s (one ``names`` table)."""
        return cls(
            *(
                np.concatenate((a, b))
                for a, b in zip(
                    (head.iteration, head.kind, head.array, head.index),
                    (tail.iteration, tail.kind, tail.array, tail.index),
                )
            ),
            head.names,
        )

    @classmethod
    def from_records(cls, records: Iterable[AccessRecord]) -> AccessTrace:
        records = list(records)
        names = tuple(sorted({r.array for r in records}))
        code = {name: k for k, name in enumerate(names)}
        rows = [
            x
            for r in records
            for x in (r.iteration, KINDS.index(r.kind), code[r.array], r.index)
        ]
        return cls.from_rows(rows, names)

    def records(self) -> list[AccessRecord]:
        """The rows as :class:`AccessRecord` objects (built on demand)."""
        return list(
            map(
                AccessRecord,
                self.iteration.tolist(),
                [KINDS[k] for k in self.kind.tolist()],
                [self.names[a] for a in self.array.tolist()],
                self.index.tolist(),
            )
        )


class _ArrayTable(dict):
    """``name -> (code, data)`` for the probe's scratch arrays.

    An undeclared name raises the memory image's own ``KeyError``, so a
    probe that aborts on one reports the same error as a real run.
    """

    __slots__ = ("_memory",)

    def __init__(self, memory: MemoryImage) -> None:
        super().__init__(
            (name, (code, memory[name].data))
            for code, name in enumerate(memory.names())
        )
        self._memory = memory

    def __missing__(self, name: str):
        # Every declared array is in the table, so this lookup raises.
        return self._memory[name]


class ProbeContext(IterationContext):
    """Recording context with sequential semantics over scratch memory.

    Like :class:`~repro.loopir.context.SequentialContext` but always
    tracing, never enforcing reduction-only access discipline (the
    certifier wants to *observe* what the body does, not police it), and
    collecting premature exits instead of acting on them.  Each access
    appends ``iteration, kind, array code, index`` to one flat list;
    :meth:`take_trace` turns it into an :class:`AccessTrace`.
    """

    __slots__ = (
        "_arrays",
        "_rows",
        "_reductions",
        "_inductions",
        "exit_at",
        "extra_work",
    )

    def __init__(
        self,
        memory: MemoryImage,
        reductions=None,
        inductions: dict[str, int] | None = None,
    ) -> None:
        super().__init__()
        self._arrays = _ArrayTable(memory)
        self._rows: list[int] = []
        self._reductions = dict(reductions or {})
        self._inductions = dict(inductions or {})
        self.exit_at: int | None = None
        self.extra_work = 0.0

    def take_trace(self) -> AccessTrace:
        """The rows recorded since the last call, as columns; recording
        then starts a new chunk."""
        rows, self._rows = self._rows, []
        return AccessTrace.from_rows(rows, tuple(self._arrays))

    def load(self, name: str, index: int):
        code, data = self._arrays[name]
        self._rows.extend((self.iteration, READ, code, index))
        return data[index]

    def store(self, name: str, index: int, value) -> None:
        code, data = self._arrays[name]
        self._rows.extend((self.iteration, WRITE, code, index))
        data[index] = value

    def update(self, name: str, index: int, value) -> None:
        code, data = self._arrays[name]
        self._rows.extend((self.iteration, UPDATE, code, index))
        op = self._reductions.get(name)
        data[index] = op.combine(data[index], value) if op is not None else value

    # -- bulk memory access -------------------------------------------------------

    def _record_many(self, kind: int, name: str, idx: np.ndarray) -> np.ndarray:
        code, data = self._arrays[name]
        rows = np.empty((len(idx), 4), dtype=np.int64)
        rows[:, :3] = (self.iteration, kind, code)
        rows[:, 3] = idx
        self._rows.extend(rows.ravel().tolist())
        return data

    def load_many(self, name: str, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        data = self._record_many(READ, name, idx)
        return data[idx]

    def store_many(self, name: str, indices, values) -> None:
        # Fancy assignment: later duplicates win, matching the bulk contract.
        idx = np.asarray(indices, dtype=np.int64)
        self._record_many(WRITE, name, idx)[idx] = values

    def bump(self, name: str) -> int:
        value = self._inductions[name]
        self._inductions[name] = value + 1
        return value

    def peek(self, name: str) -> int:
        return self._inductions[name]

    def work(self, units: float) -> None:
        self.extra_work += units

    def exit_loop(self) -> None:
        if self.exit_at is None or self.iteration < self.exit_at:
            self.exit_at = self.iteration


@dataclass(frozen=True)
class AffineSite:
    """One call site with an exact affine index fit over the probe."""

    ordinal: int
    kind: str  # 'r' | 'w' | 'u'
    array: str
    stride: int
    offset: int

    def index_at(self, iteration: int) -> int:
        return self.stride * iteration + self.offset


@dataclass
class ProbeResult:
    """What one probe of a loop observed."""

    n: int
    iterations: list[int]
    full: bool
    """The iterations ran in order from 0 with sequential semantics (the
    trace is exact evidence): all of ``[0, n)``, up to a premature exit,
    or, when ``prefix`` is set, the prefix in ``iterations``."""
    trace: AccessTrace
    exit_at: int | None
    prefix: DependenceSummary | None = None
    """Set when the probe stopped after a prefix because ``settled`` held:
    the dependence scan of ``trace``, which covers ``iterations`` only."""

    @cached_property
    def records(self) -> list[AccessRecord]:
        """The trace as :class:`AccessRecord` objects, built on first use."""
        return self.trace.records()

    @cached_property
    def _fit(self) -> tuple[bool, list[AffineSite] | None]:
        return _fit_sites(self.trace, self.iterations, self.exit_at)

    @property
    def uniform(self) -> bool:
        """Every probed iteration issued the same (kind, array) call
        sequence."""
        return self._fit[0]

    @property
    def sites(self) -> list[AffineSite] | None:
        """Exact affine fits per call site; ``None`` when the probe was not
        uniform or some site's indices do not fit ``stride * i + offset``.
        Fitted on first use: the exact path of a full probe never asks."""
        return self._fit[1]


#: Iterations a full probe runs before it may stop: ``max(PREFIX_CHECK,
#: n // 8)``.  A prefix of this size decides loops whose flow chains are
#: short, and costs a loop that runs to the end one scan of an eighth of
#: its trace.
PREFIX_CHECK = 256


def probe_loop(
    loop: SpeculativeLoop,
    memory: MemoryImage | None = None,
    limit: int = 4096,
    sample: int = 48,
    settled: Callable[[DependenceSummary, int, int], bool] | None = None,
) -> ProbeResult:
    """Execute a full or sampled probe of ``loop`` over scratch memory.

    ``memory`` is the image the real run would start from (defaults to the
    loop's own materialization); the probe works on a deep copy and never
    mutates it.  With ``n <= limit`` every iteration runs in order
    (sequential semantics, exact evidence); otherwise ``sample`` evenly
    spaced iterations run against the initial image (address observation
    only -- loaded values may differ from a true sequential execution, so
    the result is only usable through the affine model).

    ``settled(deps, probed, n)`` lets a full probe stop early: after the
    first ``max(PREFIX_CHECK, n // 8)`` iterations it scans their trace
    once, and when the predicate holds on that scan the probe returns the
    prefix (``ProbeResult.prefix`` holds the scan).  Otherwise the probe
    runs to the end as without it.  An iteration past the prefix that
    would raise is then never run.
    """
    n = loop.n_iterations
    if memory is None:
        scratch = loop.materialize()  # already a fresh copy
    else:
        scratch = MemoryImage(
            SharedArray(name, memory[name].data) for name in memory.names()
        )
    full = n <= limit
    if full:
        iterations = list(range(n))
    else:
        step = max(1, n // max(2, sample))
        iterations = sorted(set(range(0, n, step)) | {n - 1})
    ctx = ProbeContext(
        scratch, reductions=loop.reductions,
        inductions=loop.initial_inductions(),
    )
    check = max(PREFIX_CHECK, n // 8)
    if not full or settled is None or check >= n:
        check = len(iterations)
    _run_iterations(ctx, loop.body, iterations[:check], full)
    trace = ctx.take_trace()
    if check < len(iterations) and ctx.exit_at is None:
        # hot-path: the one stop check, between the two runs of the
        # iteration loop; one scan of the prefix columns.
        deps = trace_dependences(trace, n)
        if settled(deps, check, n):
            return ProbeResult(
                n=n, iterations=iterations[:check], full=True, trace=trace,
                exit_at=None, prefix=deps,
            )
        _run_iterations(ctx, loop.body, iterations[check:], full)
        trace = AccessTrace.concat(trace, ctx.take_trace())
    return ProbeResult(
        n=n,
        iterations=iterations,
        full=full,
        trace=trace,
        exit_at=ctx.exit_at,
    )


def _run_iterations(
    ctx: ProbeContext, body, iterations: list[int], stop_on_exit: bool
) -> None:
    # hot-path: one body call per probed iteration; the accesses it issues
    # append to flat columns.
    for i in iterations:
        ctx.iteration = i
        body(ctx, i)
        if stop_on_exit and ctx.exit_at is not None:
            break


def _fit_sites(
    trace: AccessTrace,
    iterations: list[int],
    exit_at: int | None,
) -> tuple[bool, list[AffineSite] | None]:
    """Fit each call ordinal affinely across the executed iterations.

    The probe runs its iterations in ascending order, so a uniform trace
    reshapes to one row per executed iteration and one column per call
    site.
    """
    executed = [i for i in iterations if exit_at is None or i <= exit_at]
    if not executed:
        return True, []
    keep = slice(None) if exit_at is None else trace.iteration <= exit_at
    m = len(executed)
    if len(trace.iteration[keep]) % m:
        return False, None
    its, kinds, arrays, x = (
        column[keep].reshape(m, -1)
        for column in (trace.iteration, trace.kind, trace.array, trace.index)
    )
    iters = np.asarray(executed, dtype=np.int64)[:, None]
    if (
        (its != iters).any()
        or (kinds != kinds[0]).any()
        or (arrays != arrays[0]).any()
    ):
        return False, None
    if m < 2:
        # One data point cannot pin a stride; callers treat a single-
        # iteration loop as trivially independent before fitting.
        return True, None
    # The first two iterations pin each site's stride; an uneven step
    # then fails the check against the second iteration itself.
    stride = (x[1] - x[0]) // (executed[1] - executed[0])
    offset = x[0] - stride * executed[0]
    if (x != stride * iters + offset).any():
        return True, None
    return True, [
        AffineSite(ordinal, KINDS[k], trace.names[a], s, o)
        for ordinal, (k, a, s, o) in enumerate(
            zip(
                kinds[0].tolist(), arrays[0].tolist(),
                stride.tolist(), offset.tolist(),
            )
        )
    ]


@dataclass
class DependenceSummary:
    """Cross-iteration dependence facts extracted from a probe."""

    conflicts: int
    """Element-sharing (iteration, iteration) pairs with at least one
    write -- zero means provably independent (DOALL) over the evidence."""
    flow_edges: list[tuple[int, int]]
    """``(source, sink)`` iteration pairs where the sink reads a value the
    source wrote (true dependences; what sequentializes a loop)."""
    critical_path: int
    """Longest flow-dependence chain, in iterations (1 = no chain)."""
    max_distance: int
    sink_iterations: int
    """Distinct iterations that are the sink of at least one dependence."""


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort: numpy 2.4's hash-based
    ``np.unique`` of a few thousand int64 keys costs ~20x a sort of them."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _flow_summary(
    srcs: np.ndarray, dsts: np.ndarray
) -> tuple[list[tuple[int, int]], int]:
    """Distinct ``(source, sink)`` flow edges in sorted order, and the
    longest chain through them (``1`` when there is none)."""
    if not len(srcs):
        return [], 1
    # One int64 key per edge: iterations span one loop's range, so
    # ``span ** 2`` stays far below the int64 limit.
    lo = int(min(srcs.min(), dsts.min()))
    span = int(max(srcs.max(), dsts.max())) - lo + 1
    src, dst = np.divmod(_distinct((srcs - lo) * span + (dsts - lo)), span)
    edges = list(zip((src + lo).tolist(), (dst + lo).tolist()))
    # Every edge points forward (source < sink), so visiting sinks in
    # ascending order finalizes each source's depth before it is read.
    by_sink = np.argsort(dst)
    depth = [1] * span
    # hot-path: longest-path pass, one step per distinct flow edge.
    for s, d in zip(src[by_sink].tolist(), dst[by_sink].tolist()):
        if depth[s] >= depth[d]:
            depth[d] = depth[s] + 1
    return edges, max(depth)


def trace_dependences(
    trace: AccessTrace | Iterable[AccessRecord], n: int
) -> DependenceSummary:
    """Exact dependence extraction from a full sequential trace.

    Groups the trace per element (a stable sort on ``(array, index)``
    keeps each element's accesses in trace order) and scans every group
    at once.  Reduction (``u``) accesses commute with each other, so u-u
    sharing is not a conflict; any r/w access mixing with another
    iteration's write (or update) is.  A read is the sink of a flow edge
    from the element's previous write when that write came from an
    earlier iteration; a write is a sink when the previous write came
    from another iteration.  ``trace`` may also be a sequence of
    :class:`AccessRecord`.
    """
    if not isinstance(trace, AccessTrace):
        trace = AccessTrace.from_records(trace)
    total = len(trace)
    if not total:
        return DependenceSummary(
            conflicts=0, flow_edges=[], critical_path=1, max_distance=0,
            sink_iterations=0,
        )
    order = np.lexsort((trace.index, trace.array))
    array, index = trace.array[order], trace.index[order]
    it, kind = trace.iteration[order], trace.kind[order]
    first = np.ones(total, dtype=bool)
    first[1:] = (array[1:] != array[:-1]) | (index[1:] != index[:-1])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=total)

    # Cross-iteration sharing invalidates DOALL unless every access is a
    # read, or every access is a commuting reduction update.
    shared = np.minimum.reduceat(it, starts) != np.maximum.reduceat(it, starts)
    reads = np.add.reduceat(kind == READ, starts, dtype=np.int64)
    updates = np.add.reduceat(kind == UPDATE, starts, dtype=np.int64)
    conflicts = int(
        np.count_nonzero(shared & (reads != sizes) & (updates != sizes))
    )
    if not conflicts:
        # A flow edge or a rewrite sink joins two iterations at a written
        # element, which is a conflict: an independent trace has neither.
        return DependenceSummary(
            conflicts=0, flow_edges=[], critical_path=1, max_distance=0,
            sink_iterations=0,
        )

    # Position of each access's previous write within its own group.
    is_write = kind == WRITE
    positions = np.arange(total)
    latest = np.maximum.accumulate(np.where(is_write, positions, -1))
    prev = np.empty(total, dtype=np.int64)
    prev[0] = -1
    prev[1:] = latest[:-1]
    has_prev = prev >= np.repeat(starts, sizes)
    writer = it[np.maximum(prev, 0)]
    flow = (kind == READ) & has_prev & (writer < it)
    rewrite = is_write & has_prev & (writer != it)
    srcs, dsts = writer[flow], it[flow]
    edges, critical = _flow_summary(srcs, dsts)
    return DependenceSummary(
        conflicts=conflicts,
        flow_edges=edges,
        critical_path=critical,
        max_distance=int((dsts - srcs).max()) if len(dsts) else 0,
        sink_iterations=len(_distinct(np.concatenate((dsts, it[rewrite])))),
    )


def _site_indices(site: AffineSite, n: int) -> np.ndarray:
    return site.stride * np.arange(n, dtype=np.int64) + site.offset


def affine_dependences(sites: list[AffineSite], n: int) -> DependenceSummary:
    """Exact dependence test over affine sites, evaluated on ``[0, n)``.

    For every (write, any) site pair on the same array, look for an
    element touched at two *different* iterations.  Two sites with one
    non-zero stride ``s`` meet in closed form: ``s*i + o_a == s*j + o_b``
    exactly when ``i - j == (o_b - o_a) / s``, so they share ``n - |delta|``
    elements at distance ``|delta|`` or none.  Other stride pairs intersect
    their two index progressions; progressions with non-zero stride are
    injective, so the intersection is a vectorized exact computation, not
    a heuristic.
    """
    conflicts = 0
    flow_srcs: list = [np.empty(0, dtype=np.int64)]
    flow_dsts: list = [np.empty(0, dtype=np.int64)]
    max_distance = 0
    sinks: list = [np.empty(0, dtype=np.int64)]

    def note_pair(i_src: int, i_dst: int, is_flow: bool) -> None:
        nonlocal conflicts, max_distance
        conflicts += 1
        src, dst = min(i_src, i_dst), max(i_src, i_dst)
        sinks.append([dst])
        max_distance = max(max_distance, dst - src)
        if is_flow and i_src < i_dst:
            flow_srcs.append([i_src])
            flow_dsts.append([i_dst])

    # hot-path: site pairs, each tested in closed form or with one
    # vectorized intersection.
    for a in sites:
        if a.kind not in ("w", "u"):
            continue
        for b in sites:  # hot-path: site pairs
            if b.array != a.array:
                continue
            if a.kind == "u" and b.kind == "u":
                continue  # commuting reduction updates
            if b.ordinal < a.ordinal and b.kind in ("w", "u"):
                continue  # the symmetric pass already covered this pair
            is_flow = b.kind == "r"
            if a.stride == 0 and b.stride == 0:
                if a.offset == b.offset and n >= 2:
                    note_pair(0, 1, is_flow)
                continue
            if a.stride == 0 or b.stride == 0:
                lin = b if a.stride == 0 else a
                const = a if a.stride == 0 else b
                num = const.offset - lin.offset
                if n < 2 or num % lin.stride or not 0 <= num // lin.stride < n:
                    continue
                j = num // lin.stride
                other = 0 if j != 0 else 1
                i_a = j if lin is a else other
                i_b = j if lin is b else other
                # Pick the constant site's witness iteration so a real flow
                # (write-then-read in iteration order) is reported when one
                # exists anywhere in [0, n).
                if is_flow and lin is b:
                    i_a = 0 if j > 0 else 1
                elif is_flow and lin is a:
                    i_b = n - 1 if j < n - 1 else 0
                note_pair(i_a, i_b, is_flow)
                continue
            if a.stride == b.stride:
                # Iteration i of a meets iteration i - delta of b.
                num = b.offset - a.offset
                delta = num // a.stride
                distance = abs(delta)
                if num % a.stride or not 0 < distance < n:
                    continue
                conflicts += n - distance
                sinks.append(np.arange(distance, n, dtype=np.int64))
                max_distance = max(max_distance, distance)
                if is_flow and delta < 0:
                    flow_srcs.append(np.arange(n - distance, dtype=np.int64))
                    flow_dsts.append(sinks[-1])
                continue
            idx_a = _site_indices(a, n)
            idx_b = _site_indices(b, n)
            common, ia, ib = np.intersect1d(
                idx_a, idx_b, assume_unique=True, return_indices=True
            )
            diff = ia != ib
            if not np.any(diff):
                continue
            srcs = np.minimum(ia[diff], ib[diff])
            dsts = np.maximum(ia[diff], ib[diff])
            conflicts += int(diff.sum())
            sinks.append(dsts)
            max_distance = max(max_distance, int((dsts - srcs).max()))
            if is_flow:
                reads_after = ib[diff] > ia[diff]
                flow_srcs.append(ia[diff][reads_after])
                flow_dsts.append(ib[diff][reads_after])
    edges, critical = _flow_summary(
        np.concatenate(flow_srcs), np.concatenate(flow_dsts)
    )
    return DependenceSummary(
        conflicts=conflicts,
        flow_edges=edges,
        critical_path=critical,
        max_distance=max_distance,
        sink_iterations=len(_distinct(np.concatenate(sinks))),
    )
