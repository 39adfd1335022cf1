"""Reference dependence tests for the differential tests.

:func:`reference_trace_dependences` is the dict-of-lists, per-element
scan that :func:`repro.loopir.symbolic.trace_dependences` replaced with a
columnar numpy scan.  It walks each element's accesses in record order
with one running ``last_write``, so every field of its
:class:`DependenceSummary` is easy to check by hand; the production scan
must agree with it field for field.

:func:`reference_affine_dependences` is the affine test that intersects
the two index progressions of every site pair, equal strides included;
:func:`repro.loopir.symbolic.affine_dependences` answers equal-stride
pairs in closed form and must agree with it field for field.
"""

from __future__ import annotations

import numpy as np

from repro.loopir.context import AccessRecord
from repro.loopir.symbolic import AffineSite, DependenceSummary, _flow_summary


def reference_trace_dependences(
    records: list[AccessRecord], n: int
) -> DependenceSummary:
    by_elem: dict[tuple[str, int], list[tuple[int, str]]] = {}
    for rec in records:
        by_elem.setdefault((rec.array, rec.index), []).append(
            (rec.iteration, rec.kind)
        )
    conflicts = 0
    flow: dict[int, set[int]] = {}
    max_distance = 0
    sinks: set[int] = set()
    for accesses in by_elem.values():
        last_write: int | None = None
        touched = {i for i, _ in accesses}
        kinds = {k for _, k in accesses}
        # Cross-iteration sharing invalidates DOALL unless every access is
        # a read, or every access is a commuting reduction update.
        if len(touched) > 1 and kinds != {"r"} and kinds != {"u"}:
            conflicts += 1
        for iteration, kind in accesses:
            if kind == "r" and last_write is not None and last_write < iteration:
                flow.setdefault(iteration, set()).add(last_write)
                max_distance = max(max_distance, iteration - last_write)
                sinks.add(iteration)
            if kind == "w":
                if last_write is not None and last_write != iteration:
                    sinks.add(iteration)
                last_write = iteration
    depth: dict[int, int] = {}
    for sink in sorted(flow):
        depth[sink] = 1 + max(
            (depth.get(src, 1) for src in flow[sink]), default=1
        )
    critical = max(depth.values(), default=1)
    edges = [(src, sink) for sink, srcs in flow.items() for src in sorted(srcs)]
    return DependenceSummary(
        conflicts=conflicts,
        flow_edges=sorted(edges),
        critical_path=critical,
        max_distance=max_distance,
        sink_iterations=len(sinks),
    )


def reference_affine_dependences(
    sites: list[AffineSite], n: int
) -> DependenceSummary:
    conflicts = 0
    flow_srcs: list = [np.empty(0, dtype=np.int64)]
    flow_dsts: list = [np.empty(0, dtype=np.int64)]
    max_distance = 0
    sinks: set[int] = set()

    def note_pair(i_src: int, i_dst: int, is_flow: bool) -> None:
        nonlocal conflicts, max_distance
        conflicts += 1
        src, dst = min(i_src, i_dst), max(i_src, i_dst)
        sinks.add(dst)
        max_distance = max(max_distance, dst - src)
        if is_flow and i_src < i_dst:
            flow_srcs.append([i_src])
            flow_dsts.append([i_dst])

    for a in sites:
        if a.kind not in ("w", "u"):
            continue
        for b in sites:
            if b.array != a.array:
                continue
            if a.kind == "u" and b.kind == "u":
                continue
            if b.ordinal < a.ordinal and b.kind in ("w", "u"):
                continue
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
                if is_flow and lin is b:
                    i_a = 0 if j > 0 else 1
                elif is_flow and lin is a:
                    i_b = n - 1 if j < n - 1 else 0
                note_pair(i_a, i_b, is_flow)
                continue
            steps = np.arange(n, dtype=np.int64)
            common, ia, ib = np.intersect1d(
                a.stride * steps + a.offset, b.stride * steps + b.offset,
                assume_unique=True, return_indices=True,
            )
            diff = ia != ib
            if not np.any(diff):
                continue
            srcs = np.minimum(ia[diff], ib[diff])
            dsts = np.maximum(ia[diff], ib[diff])
            conflicts += int(diff.sum())
            sinks.update(int(d) for d in dsts)
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
        sink_iterations=len(sinks),
    )
