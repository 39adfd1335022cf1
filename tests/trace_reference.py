"""Reference dependence scan for the differential tests.

The dict-of-lists, per-element scan that :func:`repro.loopir.symbolic.
trace_dependences` replaced with a columnar numpy scan.  It walks each
element's accesses in record order with one running ``last_write``, so
every field of its :class:`DependenceSummary` is easy to check by hand;
the production scan must agree with it field for field.
"""

from __future__ import annotations

from repro.loopir.context import AccessRecord
from repro.loopir.symbolic import DependenceSummary


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
