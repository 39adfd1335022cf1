"""R-LRPD runtime benchmark: end-to-end host metrics and a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nlfilt-partial --seed 1 --seconds 10 --trace 0

Each run builds its workload's loops from ``--seed``, computes the
sequential oracle and the serial backend's virtual time once, makes one cold
``parallelize`` call, then times whole passes of warm calls for
``--seconds``.  Every call is checked against the oracle; the command exits
non-zero on any mismatch.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer breakdown of a traced pass (the layer entry
points are wrapped only for that pass).  Times are reference-host seconds
(see hostspeed.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md lists the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
clock = time.perf_counter

#: The benchmark's contract: workloads and metric names, units and bounds.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Fresh interpreters whose set-up times join this process's own.
SETUP_PROBES = 6

#: Set-up seconds follow the one-CPU kernel's host factor only in part:
#: imports are file-system and page-fault work as much as bytecode.  Over
#: sixty back-to-back set-ups on the 2-CPU host, whose kernel time switched
#: between two levels 1.65x apart, set-up time changed 1.36x, so set-up is
#: scaled by the square root of the factor (medians of five set-ups then
#: spread 0.05, against 0.07 fully scaled and 0.20 raw).
SETUP_CALIBRATION_EXPONENT = 0.5


def pin_environment() -> None:
    """Drop every ``REPRO_*`` variable (kernels choice, oplog, resource
    sampler, crash bundles, ...) so runs see the runtime's defaults, and
    re-execute under ``PYTHONHASHSEED=0`` so every run lays out its
    str-keyed dicts and sets alike: with random hash seeds, the median
    ``spice-threads`` call of eight same-seed processes spread three times
    as far."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker if this
    process started one.  The shm backend's shared-memory segments start
    it, and left alone it outlives the benchmark until it reads end-of-file
    on its pipe.  Runs at exit, after the shm arenas' own ``weakref``
    finalizers have unregistered their segments: main() registers it before
    the runtime is imported, and exit handlers run last-registered first."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def import_runtime() -> None:
    """Put this checkout's sources first on the path and refuse to run
    against any other copy of the package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


# -- correctness -------------------------------------------------------------


class Reference:
    """What every call on one loop must reproduce: the sequential oracle's
    final memory and the serial backend's virtual ``total_time``."""

    def __init__(self, loop, workload) -> None:
        from repro import parallelize, run_sequential

        self.memory = run_sequential(loop).memory.snapshot()
        serial = replace(workload.config(), backend="serial", backend_workers=None)
        result = parallelize(loop, workload.n_procs, serial)
        problem = self.mismatch(result, check_time=False)
        if problem:
            raise SystemExit(f"perfbench: serial reference run {problem}")
        self.total_time = result.total_time

    def mismatch(self, result, check_time: bool = True) -> str | None:
        """Why ``result`` is wrong, or ``None`` when it is right."""
        if not result.memory.equals(self.memory):
            return "final memory differs from the sequential oracle"
        if check_time and result.total_time != self.total_time:
            return (
                f"virtual total_time {result.total_time!r} differs from the "
                f"serial backend's {self.total_time!r}"
            )
        return None


class Ledger:
    """Attempted and failed calls, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def call(self, workload, loop, ref: Reference, config, sinks=()):
        """One checked ``parallelize`` call: ``(wall seconds, result)``;
        the result is ``None`` when the call raised."""
        from repro import parallelize

        self.attempted += 1
        start = clock()
        try:
            result = parallelize(loop, workload.n_procs, config, sinks=sinks)
        except Exception as exc:  # a failed call is counted, not fatal
            wall = clock() - start
            self.fail(f"{loop.name}: raised {type(exc).__name__}: {exc}")
            return wall, None
        wall = clock() - start
        problem = ref.mismatch(result)
        if problem:
            self.fail(f"{loop.name}: {problem}")
        return wall, result

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


# -- measurement -------------------------------------------------------------


def setup(name: str, seed: int, scale: float):
    """Import the runtime, build the first loop and make the first (cold)
    call.  Returns ``(reference seconds, raw seconds, result)``."""
    start = clock()
    import_runtime()
    import decks
    from repro import parallelize

    workload = decks.build(name, seed, scale, first_only=True)
    result = parallelize(workload.loops[0], workload.n_procs, workload.config())
    raw = clock() - start
    import hostspeed

    # Set-up is one thread's work (import, build, one call), so the one-CPU
    # kernel calibrates it whatever the backend.
    with hostspeed.Calibration(handoff=False) as cal:
        factor = cal.factor(samples=7)
    return raw * factor**SETUP_CALIBRATION_EXPONENT, raw, result


def probe_setup(name: str, seed: int, scale: float) -> float:
    """Set-up reference seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--scale", str(scale), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(proc.stdout.split()[-1])


@dataclass(frozen=True)
class Outcome:
    """What the metrics need from one call's result.  Results themselves
    are dropped at once: each holds the final memory image, and keeping
    them would grow the heap the timed calls run in."""

    n_iterations: int
    sequential_work: float
    total_time: float
    n_stages: int


def timed_passes(
    workload, seconds: float, call, cal
) -> list[tuple[float, float, Outcome | None]]:
    """Warm calls in whole passes over the workload's loops until at least
    ``seconds`` of host time have been spent in them.  ``call(index)``
    makes one call and returns ``(wall, result)``; each sample is
    ``(wall, host factor, outcome)``, the outcome ``None`` when the call
    raised.  The host factor uses the calibrations on both sides of the
    call."""
    samples = []
    spent = 0.0
    before = cal.seconds()
    while spent < seconds or not samples:
        for index in range(len(workload.loops)):
            wall, result = call(index)
            outcome = None if result is None else Outcome(
                result.n_iterations, result.sequential_work,
                result.total_time, result.n_stages,
            )
            del result
            after = cal.seconds()
            samples.append((wall, 2.0 * cal.reference / (before + after), outcome))
            before = after
            spent += wall
    return samples


def plain_calls(workload, refs, ledger: Ledger, config):
    def call(index):
        return ledger.call(workload, workload.loops[index], refs[index], config)

    return call


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, but never
    below the median: ``(value, percentile, samples beyond)``."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment(workload) -> dict:
    from repro.core.threads import thread_mode
    from repro.kernels import get_default_kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gil": thread_mode(),
        "kernels": get_default_kernels(),
        "backend": workload.backend,
        "workers": workload.workers or 0,
        "p": workload.n_procs,
        "loops": len(workload.loops),
        "n": workload.loops[0].n_iterations,
    }


def end_to_end(workload, samples, setups, rss_mb) -> dict[str, float]:
    times = [wall * factor for wall, factor, _ in samples]
    results = [outcome for _, _, outcome in samples]
    first_pass = results[: len(workload.loops)]
    return {
        "run_s.p50": statistics.median(times),
        "run_s.tail": tail(times)[0],
        "iters_per_s": sum(r.n_iterations for r in results) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "virtual_speedup": sum(r.sequential_work for r in first_pass)
        / sum(r.total_time for r in first_pass),
        "stages": statistics.fmean(r.n_stages for r in first_pass),
    }


def per_layer(workload, refs, ledger: Ledger, seconds: float, cal):
    """Untraced then traced passes (half the budget each), one charge-counting
    call and the sequential floor.  Returns the per-layer metrics, the
    self-time table and the span log."""
    import layers
    from repro import run_sequential

    untraced = timed_passes(
        workload, seconds / 2, plain_calls(workload, refs, ledger, workload.config()), cal
    )
    log = layers.SpanLog()
    sink = layers.BlockSpanSink(log, clock)
    traced_config = workload.config(traced=True)
    rows: list[dict] = []

    def traced_call(index):
        with log.call(len(rows), clock) as root:
            wall, result = ledger.call(
                workload, workload.loops[index], refs[index], traced_config, sinks=(sink,)
            )
        row = layers.call_layers(log.spans, root)
        if result is not None:
            hist = result.metrics["histograms"]["exec.block_iterations"]
            row["counters"] = result.metrics["counters"]
            row["useful"] = result.n_iterations / hist["total"]
            row["acted"] = float(result.strategy.startswith("certified"))
            row["redispatched"] = result.supervision.get("supervise.redispatched_blocks", 0)
        rows.append(row)
        return wall, result

    backend_cls = _backend_class(workload.backend)
    with layers.installed(log, backend_cls, clock):
        traced = timed_passes(workload, seconds / 2, traced_call, cal)
    leftover = layers.leftover_wrappers(backend_cls)
    if leftover:
        ledger.fail(f"wrappers left installed: {', '.join(leftover)}")

    with layers.counting_charges() as charge_calls:
        ledger.call(workload, workload.loops[0], refs[0], workload.config())
        n_charges = charge_calls()

    seq = []
    for i in range(max(5, len(workload.loops))):
        start = clock()
        run_sequential(workload.loops[i % len(workload.loops)])
        wall = clock() - start
        seq.append(wall * cal.factor(samples=1))

    table = layers.self_time_table(log.spans, len(rows))
    if any(outcome is None for _, _, outcome in untraced + traced):
        return {}, table, log
    good = [(row, factor) for row, (_, factor, _) in zip(rows, traced)]

    def seconds_of(key):
        return statistics.median(row[key] * factor for row, factor in good)

    def count_of(key):
        return statistics.median(row["counters"].get(key, 0) for row, _ in good)

    def median_of(key):
        return statistics.median(row[key] for row, _ in good)

    untraced_p50 = statistics.median(w * f for w, f, _ in untraced)
    seq_s = statistics.median(seq)
    metrics = {
        "loopir.seq_s": seq_s,
        "engine.overhead_x": untraced_p50 / seq_s,
        "certify.s": seconds_of("certify"),
        "certify.acted": median_of("acted"),
        "execute.s": seconds_of("execute"),
        "execute.calls": median_of("execute.calls"),
        "execute.first_s": seconds_of("execute.first_s"),
        "shadow.marks": count_of("shadow.marks"),
        "shadow.copy_in_elements": count_of("shadow.copy_in.elements"),
        "machine.charge_calls": n_charges,
        "backend.block_s": seconds_of("block"),
        "backend.overhead_s": statistics.median(
            (row["execute"] - row["block"]) * factor for row, factor in good
        ),
        "backend.close_s": seconds_of("close"),
        "backend.redispatched": median_of("redispatched"),
        "analysis.s": seconds_of("analysis"),
        "analysis.distinct_refs": count_of("analysis.distinct_refs"),
        "commit.s": seconds_of("commit"),
        "reinit.s": seconds_of("reinit"),
        "restore.s": seconds_of("restore"),
        "checkpoint.saved_elements": count_of("checkpoint.saved.elements"),
        "restore.elements": count_of("restore.elements"),
        "commit.elements": count_of("commit.elements"),
        "engine.self_s": seconds_of("engine.self"),
        "engine.useful_ratio": median_of("useful"),
        "trace.overhead": statistics.median(w * f for w, f, _ in traced) / untraced_p50 - 1.0,
    }
    return metrics, table, log


def _backend_class(name: str):
    from repro.core.backend import BACKENDS, backend_names

    backend_names()  # registers the lazily imported backends
    return BACKENDS[name]


# -- reporting ---------------------------------------------------------------


def traced_run(args, workload, refs, ledger: Ledger, env: dict, cal) -> dict[str, float]:
    import layers

    metrics, table, log = per_layer(workload, refs, ledger, args.seconds, cal)
    print("host seconds per call (raw, not calibrated; block totals sum over procs):")
    print(f"  {'layer':<10} {'spans':>7} {'total s':>10} {'self s':>10}")
    for layer, count, total, own in table:
        print(f"  {layer:<10} {count:>7.1f} {total:>10.6f} {own:>10.6f}")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    layers.write_chrome_trace(path, log.spans, {**env, "workload": args.workload})
    print(f"chrome trace: {path.relative_to(ROOT)}")
    return metrics


def untraced_run(
    args, workload, refs, ledger: Ledger, cal, setup_s: float, setup_raw: float
) -> dict[str, float]:
    samples = timed_passes(
        workload, args.seconds, plain_calls(workload, refs, ledger, workload.config()), cal
    )
    # Read before the set-up probes: they are reaped children too.
    rss_mb = peak_rss_mb()
    setups = [setup_s] + [
        probe_setup(args.workload, args.seed, args.scale) for _ in range(SETUP_PROBES)
    ]
    _, pct, beyond = tail([w * f for w, f, _ in samples])
    print(f"calls={len(samples)} passes={len(samples) // len(workload.loops)} "
          f"raw run_s.p50={statistics.median(w for w, _, _ in samples):.6g} s "
          f"host factor={statistics.median(f for _, f, _ in samples):.4g}; "
          f"run_s.tail=p{pct:.0f} ({beyond} of {len(samples)} beyond); "
          f"setup_s=median of {len(setups)} (raw here {setup_raw:.4g} s)")
    if any(outcome is None for _, _, outcome in samples):
        return {}
    return end_to_end(workload, samples, setups, rss_mb)


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in CONTRACT["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (smoke tests only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure set-up once and print its reference seconds")
    args = parser.parse_args(argv)

    pin_environment()
    atexit.register(stop_resource_tracker)
    setup_s, setup_raw, cold = setup(args.workload, args.seed, args.scale)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import decks

    workload = decks.build(args.workload, args.seed, args.scale)
    refs = [Reference(loop, workload) for loop in workload.loops]
    ledger = Ledger()
    ledger.attempted += 1
    problem = refs[0].mismatch(cold)
    if problem:
        ledger.fail(f"cold call: {problem}")
    del cold

    env = environment(workload)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(env, sort_keys=True)}")
    import hostspeed

    with hostspeed.Calibration(handoff=workload.workers is not None) as cal:
        if args.trace:
            metrics = traced_run(args, workload, refs, ledger, env, cal)
        else:
            metrics = untraced_run(args, workload, refs, ledger, cal, setup_s, setup_raw)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = units(kind)
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {declared[name]}")
    print(f"  {'fail_frac':<26} {ledger.failed / ledger.attempted:>14.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} calls)")
    for reason in ledger.reasons:
        print(f"  FAILED: {reason}")
    correct = ledger.failed == 0 and set(metrics) == set(declared)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
