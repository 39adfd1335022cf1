"""Cross-commit speedup trends (:mod:`repro.bench.trend`).

History loading, the comparable-host grouping (same cpus + GIL mode),
the delta-vs-previous line the benchmark script prints, the trend
tables behind ``repro bench-trend``, and the regression gate.
"""

import json

import pytest

from repro.bench.trend import (
    has_regressions,
    load_history,
    previous_comparable,
    render_delta,
    render_trend,
)


def _entry(commit, date="2026-08-01", cpus=8, gil="gil", **speedups):
    return {
        "commit": commit, "date": date, "cpus": cpus, "gil": gil,
        "backends": sorted({b for s in speedups.values() for b in s}),
        "speedups": speedups,
    }


HISTORY = [
    _entry("aaaa111", date="2026-07-01",
           chain={"fork": 2.0, "threads": 1.1}, doall={"fork": 3.0}),
    _entry("bbbb222", date="2026-07-15",
           chain={"fork": 2.2, "threads": 1.0}, doall={"fork": 3.1}),
    # A different host group: never compared against the 8-cpu entries.
    _entry("bbbb222", date="2026-07-15", cpus=2,
           chain={"fork": 1.2}),
    _entry("cccc333", date="2026-08-01",
           chain={"fork": 1.5, "threads": 1.05}, doall={"fork": 3.2},
           ddg={"serial": 1.0}),
]


class TestLoadHistory:
    def test_reads_history_list(self, tmp_path):
        path = tmp_path / "BENCH_host.json"
        path.write_text(json.dumps({"history": HISTORY, "host": {}}))
        assert load_history(str(path)) == HISTORY

    def test_missing_or_malformed_entries_skipped(self, tmp_path):
        path = tmp_path / "BENCH_host.json"
        path.write_text(json.dumps({"history": [HISTORY[0], "junk", 3]}))
        assert load_history(str(path)) == [HISTORY[0]]

    def test_no_history_key(self, tmp_path):
        path = tmp_path / "BENCH_host.json"
        path.write_text(json.dumps({"workloads": {}}))
        assert load_history(str(path)) == []


class TestPreviousComparable:
    def test_finds_latest_same_group_entry(self):
        assert previous_comparable(HISTORY, HISTORY[3]) is HISTORY[1]

    def test_ignores_other_host_groups(self):
        # The only other 2-cpu entry is itself; no comparable previous.
        assert previous_comparable(HISTORY, HISTORY[2]) is None

    def test_ignores_same_commit(self):
        later = _entry("cccc333", chain={"fork": 9.9})
        assert previous_comparable(
            [HISTORY[3], later], later
        ) is None  # same commit, merged entries are not "previous"

    def test_first_entry_has_no_previous(self):
        assert previous_comparable(HISTORY, HISTORY[0]) is None

    def test_method_change_breaks_comparability(self):
        # Entries recorded under a different timing discipline are not a
        # baseline: a method-tagged entry never compares against the
        # single-sample era (method=None) and vice versa.
        tagged = dict(
            _entry("dddd444", date="2026-08-08", chain={"fork": 0.9}),
            method="warm-best5",
        )
        history = [*HISTORY, tagged]
        assert previous_comparable(history, tagged) is None
        # ...and a second tagged entry compares against the first.
        tagged2 = dict(
            _entry("eeee555", date="2026-08-09", chain={"fork": 0.95}),
            method="warm-best5",
        )
        assert previous_comparable([*history, tagged2], tagged2) is tagged

    def test_method_change_does_not_gate(self):
        # chain/fork 2.2 -> 0.9 would be a huge drop, but the newest
        # entry has no same-method baseline, so nothing regresses.
        tagged = dict(
            _entry("dddd444", date="2026-08-08", chain={"fork": 0.9}),
            method="warm-best5",
        )
        assert not has_regressions([HISTORY[1], tagged])


class TestRenderDelta:
    def test_no_previous(self):
        assert "nothing to compare" in render_delta(HISTORY[0], None)

    def test_flags_regressions_and_new_pairs(self):
        text = render_delta(HISTORY[3], HISTORY[1])
        assert "delta vs bbbb222" in text
        # chain/fork dropped 2.2 -> 1.5 (-32%): flagged.
        assert "chain/fork: 1.50x (-31.8% vs 2.20x)  REGRESSION" in text
        # doall/fork improved: not flagged.
        assert "doall/fork: 3.20x (+3.2% vs 3.10x)" in text
        assert "REGRESSION" not in text.split("doall/fork")[1]
        # ddg/serial did not exist before.
        assert "ddg/serial: 1.00x (new)" in text

    def test_threshold_is_respected(self):
        text = render_delta(HISTORY[3], HISTORY[1], threshold=0.50)
        assert "REGRESSION" not in text


class TestRenderTrend:
    def test_one_table_per_host_group(self):
        text = render_trend(HISTORY)
        assert "host speedups (cpus=8, gil=gil)" in text
        assert "host speedups (cpus=2, gil=gil)" in text

    def test_columns_in_history_order_with_change(self):
        text = render_trend(HISTORY)
        assert "aaaa111 (2026-07-01)" in text
        assert "cccc333 (2026-08-01)" in text
        # The 8-cpu chain/fork row ends with the newest-vs-previous change.
        row = next(
            line for line in text.splitlines()
            if line.strip().startswith("chain/fork") and "2.00x" in line
        )
        assert "1.50x" in row
        assert "-31.8%" in row and "REGRESSION" in row

    def test_missing_measurements_render_as_dash(self):
        text = render_trend(HISTORY)
        row = next(
            line for line in text.splitlines()
            if line.strip().startswith("ddg/serial")
        )
        assert row.count("-") >= 2  # absent in the two older columns

    def test_workload_filter(self):
        text = render_trend(HISTORY, workload="doall")
        assert "doall/fork" in text
        assert "chain/fork" not in text
        # The 2-cpu group has no doall rows at all: table omitted.
        assert "cpus=2" not in text

    def test_empty_history_message(self):
        assert "history is empty" in render_trend([])

    def test_method_tagged_entries_get_their_own_table(self):
        tagged = dict(
            _entry("dddd444", date="2026-08-08", chain={"fork": 0.9}),
            method="warm-best5",
        )
        text = render_trend([*HISTORY, tagged])
        assert "host speedups (cpus=8, gil=gil) [warm-best5]" in text
        # The untagged group's table is unchanged alongside it.
        assert "host speedups (cpus=8, gil=gil)\n" in text


class TestHasRegressions:
    def test_detects_newest_drop(self):
        assert has_regressions(HISTORY)

    def test_relaxed_threshold_passes(self):
        assert not has_regressions(HISTORY, threshold=0.50)

    def test_no_history_or_no_previous(self):
        assert not has_regressions([])
        assert not has_regressions([HISTORY[0]])


class TestCli:
    def _write(self, tmp_path, history):
        path = tmp_path / "BENCH_host.json"
        path.write_text(json.dumps({"history": history}))
        return str(path)

    def test_bench_trend_prints_tables(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench-trend", self._write(tmp_path, HISTORY)]) == 0
        out = capsys.readouterr().out
        assert "host speedups (cpus=8, gil=gil)" in out
        assert "REGRESSION" in out

    def test_strict_exits_nonzero_on_regression(self, tmp_path):
        from repro.cli import main

        path = self._write(tmp_path, HISTORY)
        assert main(["bench-trend", path, "--strict"]) == 1
        assert main(["bench-trend", path, "--strict",
                     "--threshold", "0.5"]) == 0

    def test_missing_results_file_exits(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench-trend", str(tmp_path / "nope.json")])

    def test_workload_filter_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench-trend", self._write(tmp_path, HISTORY),
                     "--workload", "doall"]) == 0
        out = capsys.readouterr().out
        assert "doall/fork" in out
        assert "chain/fork" not in out


class TestRetiredBackend:
    """A backend dropped from the sweep leaves its pairs in older entries
    only; the trend must keep rendering them without calling the gap (or
    their last historical move) a regression."""

    HISTORY = [
        _entry("aaaa111", date="2026-07-01", cpus=1,
               doall={"fork": 0.60, "shm": 0.35, "threads": 1.20}),
        # fork dropped 15% here -- history, not the newest run's doing.
        _entry("bbbb222", date="2026-07-15", cpus=1,
               doall={"fork": 0.51, "shm": 0.36, "threads": 1.20}),
        _entry("cccc333", date="2026-08-01", cpus=1,
               doall={"shm": 0.37, "threads": 1.25}),
    ]

    def test_table_keeps_retired_rows_without_flagging_them(self):
        text = render_trend(self.HISTORY)
        fork_row = next(
            line for line in text.splitlines()
            if line.startswith("doall/fork")
        )
        assert "0.60x" in fork_row and "0.51x" in fork_row
        assert fork_row.rstrip().endswith("-")
        assert "REGRESSION" not in text

    def test_strict_gate_passes(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH_host.json"
        path.write_text(json.dumps({"history": self.HISTORY}))
        assert not has_regressions(self.HISTORY)
        assert main(["bench-trend", str(path), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "doall/fork" in out
        assert "REGRESSION" not in out
