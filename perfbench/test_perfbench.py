"""The benchmark's own tests.  Run from the repository root with
``python -m pytest perfbench -q`` (the repository's suite does not collect
this directory)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_runtime()

import decks  # noqa: E402
import layers  # noqa: E402

from repro import parallelize, run_sequential  # noqa: E402

CONTRACT = run.CONTRACT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = 0.05


def bench(*args: str) -> tuple[int, list[str], dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, lines, result


def test_metric_names_follow_the_grammar():
    e2e, layer = CONTRACT["end_to_end"], CONTRACT["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer]
    assert len(names) == len(set(names))
    for metric in e2e + layer:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in e2e:
        assert 0 < metric["bound"] <= 0.25
    workloads = [w["name"] for w in CONTRACT["workloads"]]
    assert workloads == list(decks.WORKLOADS)


@pytest.mark.parametrize("workload", list(decks.WORKLOADS))
@pytest.mark.parametrize("seed", [3, 8])
def test_smoke_run_is_correct(workload, seed):
    code, lines, result = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--scale", str(TINY), "--trace", "0",
    )
    assert code == 0, lines[-12:]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert any(line.split()[:2] == ["fail_frac", "0"] for line in lines)


@pytest.mark.parametrize("workload", list(decks.WORKLOADS))
def test_traced_smoke_run_reports_every_layer(workload):
    code, lines, result = bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.2",
        "--scale", str(TINY), "--trace", "1",
    )
    assert code == 0, lines[-12:]
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    assert metrics["execute.calls"] >= 1
    trace = json.loads((run.OUT / f"trace-{workload}-seed5.json").read_text())
    assert any(e.get("cat") == "block" for e in trace["traceEvents"])


@pytest.mark.parametrize("workload", list(decks.WORKLOADS))
def test_the_seed_decides_the_inputs(workload):
    def image(seed):
        loop = decks.build(workload, seed, TINY, first_only=True).loops[0]
        return run_sequential(loop).memory

    first, again, other = image(1), image(1), image(2)
    assert first.equals(again.snapshot())
    assert not first.equals(other.snapshot())


def test_wrappers_are_removed_after_the_traced_pass():
    import repro.core.engine as engine
    import repro.core.runner as runner

    workload = decks.build("spice-threads", 1, TINY)
    backend_cls = run._backend_class(workload.backend)
    before = {
        "analyze_stage": engine.analyze_stage,
        "certify_loop": runner.certify_loop,
        "run_blocks": backend_cls.__dict__.get("run_blocks"),
        "close": backend_cls.__dict__.get("close"),
    }
    log = layers.SpanLog()
    sink = layers.BlockSpanSink(log, run.clock)
    with layers.installed(log, backend_cls, run.clock):
        assert layers.leftover_wrappers(backend_cls)
        with log.call(0, run.clock):
            parallelize(
                workload.loops[0], workload.n_procs,
                workload.config(traced=True), sinks=(sink,),
            )
    assert layers.leftover_wrappers(backend_cls) == []
    assert engine.analyze_stage is before["analyze_stage"]
    assert runner.certify_loop is before["certify_loop"]
    assert backend_cls.__dict__.get("run_blocks") is before["run_blocks"]
    assert backend_cls.__dict__.get("close") is before["close"]
    names = {span[layers.NAME] for span in log.spans}
    assert {"call", "block", "certify", "execute", "analysis", "commit", "close"} <= names


def test_oracle_check_fires_on_a_wrong_memory_image():
    workload = decks.build("doall-dense", 4, TINY)
    loop = workload.loops[0]
    ref = run.Reference(loop, workload)
    result = parallelize(loop, workload.n_procs, workload.config())
    assert ref.mismatch(result) is None
    result.memory["A"].data[3] += 1.0
    assert "sequential oracle" in ref.mismatch(result)


def test_time_check_fires_on_a_different_virtual_time():
    workload = decks.build("doall-dense", 4, TINY)
    loop = workload.loops[0]
    ref = run.Reference(loop, workload)
    result = parallelize(loop, workload.n_procs, workload.config())
    ref.total_time += 1.0
    assert "total_time" in ref.mismatch(result)


def test_ledger_counts_a_failed_call():
    workload = decks.build("doall-dense", 4, TINY)
    loop = workload.loops[0]
    ref = run.Reference(loop, workload)
    ref.total_time = -1.0
    ledger = run.Ledger()
    ledger.call(workload, loop, ref, workload.config())
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_tail_has_ten_samples_beyond_it():
    walls = [float(i) for i in range(40)]
    value, pct, beyond = run.tail(walls)
    assert sum(w > value for w in walls) == beyond == 10
    assert pct == 75.0
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 100.0 * 2 / 3, 1)


def test_union_length_merges_overlaps():
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_runs_without_sources_fail_without_a_result():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "doall-dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _session_members(sid: int) -> list[int]:
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getsid(int(entry.name)) == sid:
                    members.append(int(entry.name))
            except OSError:
                pass
    return members


@pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_shm_run_leaves_no_process_behind(trace):
    # The shm backend's segments start the multiprocessing resource
    # tracker, which would otherwise outlive the run.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "spice-shm",
         "--seed", "2", "--seconds", "0.2", "--scale", str(TINY), "--trace", trace],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        cwd=run.ROOT, start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []
