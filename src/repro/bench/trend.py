"""Cross-commit speedup trends from ``BENCH_host.json`` history.

``benchmarks/bench_host_perf.py --out`` appends one history entry per
run -- ``(commit, date, cpus, gil, method, per-workload/per-backend
speedups)``, deduplicated on ``(commit, cpus, gil)``.  This module reads
that history back:

* :func:`render_trend` (``repro bench-trend``) renders one table per
  comparable host group (same cpu count, GIL mode and timing method): a
  row per
  ``workload/backend`` pair, a column per commit, the relative change of
  the newest measurement, and a regression flag when it dropped more
  than ``threshold`` below the previous comparable entry.
* :func:`previous_comparable` / :func:`render_delta` back the
  delta-vs-previous line the benchmark script prints after each run.

Comparisons only ever happen within a group: a 1-cpu CI run is not a
regression relative to a 16-cpu workstation run, a free-threaded
build keeps its own trajectory next to the stock-GIL one, and entries
produced by a different timing discipline (the ``method`` field) never
gate each other -- the single-sample era's numbers are shown in their
own table but are not a baseline anything must beat.
"""

from __future__ import annotations

import json

from repro.util.tables import format_table

#: Relative drop of a workload/backend speedup (vs the previous
#: comparable entry) flagged as a regression.
DEFAULT_THRESHOLD = 0.10


def load_history(path: str) -> list[dict]:
    """The ``history`` list of a ``BENCH_host.json`` file (may be [])."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    history = data.get("history", [])
    return [entry for entry in history if isinstance(entry, dict)]


def _group_key(entry: dict) -> tuple:
    # ``method`` names the timing discipline that produced the entry
    # (e.g. "warm-best5"); entries recorded before it existed carry
    # ``None``.  A method change redefines what the numbers mean -- the
    # single-sample era recorded speedups that wobble past any sane
    # regression threshold -- so entries only ever gate against entries
    # measured the same way.
    return (entry.get("cpus"), entry.get("gil"), entry.get("method"))


def previous_comparable(history: list[dict], entry: dict) -> dict | None:
    """The latest earlier entry measured on a comparable host.

    Comparable = same cpu count, GIL mode and measurement method but a
    different commit;
    the entry for the *same* commit was replaced by the history merge,
    so the match is genuinely the previous measurement.
    """
    key = _group_key(entry)
    # Only look at entries before `entry`'s own position; when `entry`
    # is not (yet) in the list, the whole history is earlier.
    end = next(
        (i for i, old in enumerate(history) if old is entry), len(history)
    )
    for old in reversed(history[:end]):
        if _group_key(old) == key and old.get("commit") != entry.get("commit"):
            return old
    return None


def _pairs(entry: dict):
    """Sorted ``(workload, backend, speedup)`` triples of one entry."""
    for workload in sorted(entry.get("speedups", {})):
        speedups = entry["speedups"][workload]
        if not isinstance(speedups, dict):
            continue
        for backend in sorted(speedups):
            yield workload, backend, speedups[backend]


def render_delta(
    entry: dict,
    previous: dict | None,
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """One-line-per-pair delta of ``entry`` against ``previous``."""
    if previous is None:
        return "no previous comparable run in history; nothing to compare"
    prev = {
        (workload, backend): speedup
        for workload, backend, speedup in _pairs(previous)
    }
    lines = [
        f"delta vs {previous.get('commit')} ({previous.get('date')}, "
        f"cpus={previous.get('cpus')}, gil={previous.get('gil')}):"
    ]
    for workload, backend, speedup in _pairs(entry):
        before = prev.get((workload, backend))
        if not before:
            lines.append(f"  {workload}/{backend}: {speedup:.2f}x (new)")
            continue
        change = speedup / before - 1.0
        flag = "  REGRESSION" if change < -threshold else ""
        lines.append(
            f"  {workload}/{backend}: {speedup:.2f}x "
            f"({change:+.1%} vs {before:.2f}x){flag}"
        )
    return "\n".join(lines)


def render_trend(
    history: list[dict],
    threshold: float = DEFAULT_THRESHOLD,
    workload: str | None = None,
) -> str:
    """Trend tables over a ``BENCH_host.json`` history list.

    One table per ``(cpus, gil)`` host group, columns in history order
    (oldest left).  The ``change`` column compares the two newest
    measurements of each row; drops beyond ``threshold`` are flagged.
    Rows the group's newest entry no longer measures (a retired backend)
    keep their history but get no change: their last two values are old
    news, not this run's regression.
    """
    if not history:
        return "history is empty; run benchmarks/bench_host_perf.py --out first"
    groups: dict[tuple, list[dict]] = {}
    for entry in history:
        groups.setdefault(_group_key(entry), []).append(entry)
    sections = []
    for key in sorted(groups, key=str):
        entries = groups[key]
        cpus, gil, method = key
        columns = [
            f"{e.get('commit') or '?'} ({e.get('date') or '?'})"
            for e in entries
        ]
        rows_by_pair: dict[tuple, list] = {}
        for i, entry in enumerate(entries):
            for wl, backend, speedup in _pairs(entry):
                if workload is not None and wl != workload:
                    continue
                row = rows_by_pair.setdefault((wl, backend), [None] * len(entries))
                row[i] = speedup
        if not rows_by_pair:
            continue
        rows = []
        for (wl, backend), values in sorted(rows_by_pair.items()):
            cells = [f"{v:.2f}x" if v is not None else "-" for v in values]
            present = [v for v in values if v is not None]
            if values[-1] is not None and len(present) >= 2 and present[-2]:
                change = present[-1] / present[-2] - 1.0
                verdict = f"{change:+.1%}"
                if change < -threshold:
                    verdict += "  REGRESSION"
            else:
                verdict = "-"
            rows.append([f"{wl}/{backend}", *cells, verdict])
        sections.append(format_table(
            ["workload/backend", *columns, "change"], rows,
            title=f"host speedups (cpus={cpus}, gil={gil})"
            + (f" [{method}]" if method else ""),
        ))
    return "\n\n".join(sections)


def has_regressions(
    history: list[dict], threshold: float = DEFAULT_THRESHOLD
) -> bool:
    """Whether any newest-vs-previous comparable pair regressed."""
    if not history:
        return False
    newest = history[-1]
    previous = previous_comparable(history, newest)
    if previous is None:
        return False
    prev = {
        (workload, backend): speedup
        for workload, backend, speedup in _pairs(previous)
    }
    for workload, backend, speedup in _pairs(newest):
        before = prev.get((workload, backend))
        if before and speedup / before - 1.0 < -threshold:
            return True
    return False
