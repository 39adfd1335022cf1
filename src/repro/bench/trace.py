"""Human-readable traces of speculative runs.

Renders a :class:`~repro.core.results.RunResult` as the stage-by-stage
table the paper's worked examples walk through, plus per-category
execution-time breakdowns (the Fig. 4 rows).  Used by the examples and
handy when debugging a new workload's dependence behavior.
"""

from __future__ import annotations

from repro.core.results import ProgramResult, RunResult
from repro.machine.timeline import Category
from repro.util.tables import format_table


def render_stage_trace(result: RunResult) -> str:
    """One row per stage: schedule, outcome, commit progress, span.

    Runs examined by the certification front-end carry a leading
    ``certificate:`` line with the verdict and its evidence basis, marked
    advisory when the certificate did not pick the strategy.
    """
    rows = []
    for s in result.stages:
        blocks = " ".join(
            f"p{b.proc}[{b.start},{b.stop})" for b in s.blocks if len(b)
        )
        rows.append(
            [
                s.index,
                blocks if len(blocks) < 48 else f"{len(s.blocks)} blocks",
                "fail" if s.failed else "ok",
                s.committed_iterations,
                s.remaining_after,
                s.n_arcs,
                round(s.span, 2),
            ]
        )
    table = format_table(
        ["stage", "schedule", "test", "committed", "remaining", "arcs", "span"],
        rows,
        title=(
            f"{result.loop_name} under {result.strategy} on p={result.n_procs}: "
            f"{result.n_stages} stages, {result.n_restarts} restarts, "
            f"speedup {result.speedup:.2f}x, kernels {result.kernels}"
            + ("" if result.backend == "serial" else f", backend {result.backend}")
            + ("" if result.thread_mode is None else f" ({result.thread_mode})")
        ),
    )
    if result.certificate is not None:
        mode = "" if result.certificate_acted else " (advisory, not acted on)"
        table = f"certificate{mode}: {result.certificate.describe()}\n{table}"
    return table


def render_breakdown(result: RunResult) -> str:
    """Wall-clock contribution of every cost category, per stage."""
    categories = [c for c in Category if result.timeline.total_category(c) > 0]
    rows = []
    for s in result.stages:
        rows.append(
            [s.index]
            + [round(s.breakdown.get(c, 0.0), 2) for c in categories]
            + [round(s.span, 2)]
        )
    rows.append(
        ["total"]
        + [round(result.timeline.total_category(c), 2) for c in categories]
        + [round(result.total_time, 2)]
    )
    return format_table(
        ["stage", *(str(c) for c in categories), "span"],
        rows,
        title=f"{result.loop_name}: execution-time breakdown",
    )


def render_program(program: ProgramResult) -> str:
    """One row per instantiation plus the PR aggregate."""
    rows = [
        [
            k,
            run.strategy,
            run.n_stages,
            run.n_restarts,
            round(run.parallelism_ratio, 3),
            round(run.speedup, 2),
        ]
        for k, run in enumerate(program.runs)
    ]
    table = format_table(
        ["instantiation", "strategy", "stages", "restarts", "PR", "speedup"],
        rows,
        title=(
            f"{program.loop_name}: {program.n_instantiations} instantiations, "
            f"PR={program.parallelism_ratio:.3f}, "
            f"program speedup {program.speedup:.2f}x"
        ),
    )
    return table
