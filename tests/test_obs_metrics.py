"""Unit tests for the metrics registry (:mod:`repro.obs.metrics`).

The registry's contract is what the pool backends' determinism rests on:
snapshots are sorted and JSON-ready, merging per-block snapshots in block
order reproduces a serial run's totals exactly, and a disabled registry
is free (shared null instruments, no allocation, empty snapshots).
"""

import pytest

from repro.config import RuntimeConfig
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    instrumentation_defaults,
    render_metrics,
    resolve_metrics_enabled,
    resolve_spans_enabled,
    use_instrumentation,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(41)
        assert reg.counter("c").value == 42

    def test_counter_is_create_or_return(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3)
        reg.gauge("g").set(7)
        assert reg.gauge("g").value == 7

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (4, 2, 9):
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (3, 15.0, 2, 9)
        assert h.mean == 5.0

    def test_empty_histogram_mean_is_zero(self):
        assert MetricsRegistry().histogram("h").mean == 0.0


class TestDisabledRegistry:
    def test_disabled_hands_out_shared_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        null = reg.counter("c")
        assert null is reg.gauge("g") is reg.histogram("h")
        null.inc(5)
        null.set(5)
        null.observe(5)
        assert null.value == 0 and null.count == 0

    def test_disabled_snapshot_is_empty(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_disabled_merge_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.merge({"counters": {"c": 5}})
        assert reg.snapshot()["counters"] == {}

    def test_null_registry_is_disabled(self):
        assert not NULL_REGISTRY.enabled


class TestSnapshotAndMerge:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc(2)
        reg.counter("a.count").inc(1)
        reg.gauge("pool").set(4)
        reg.histogram("sizes").observe(8)
        return reg

    def test_snapshot_keys_are_sorted(self):
        snap = self._populated().snapshot()
        assert list(snap["counters"]) == ["a.count", "z.count"]

    def test_snapshot_is_json_ready(self):
        import json

        json.dumps(self._populated().snapshot())

    def test_merge_reproduces_serial_totals(self):
        # Two "workers" each observe a share; merging their snapshots in
        # order must equal one registry that saw everything serially.
        serial = MetricsRegistry()
        merged = MetricsRegistry()
        for share in ([3, 1], [7]):
            worker = MetricsRegistry()
            for v in share:
                serial.counter("c").inc(v)
                serial.gauge("g").set(v)
                serial.histogram("h").observe(v)
                worker.counter("c").inc(v)
                worker.gauge("g").set(v)
                worker.histogram("h").observe(v)
            merged.merge(worker.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_merge_skips_empty_histograms(self):
        reg = MetricsRegistry()
        reg.merge({"histograms": {"h": {"count": 0, "total": 0.0,
                                        "min": None, "max": None}}})
        assert reg.snapshot()["histograms"]["h"]["min"] is None

    def test_reset_clears_everything(self):
        reg = self._populated()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestResolution:
    def test_defaults_are_off(self):
        assert instrumentation_defaults() == (False, False)
        config = RuntimeConfig.nrd()
        assert not resolve_metrics_enabled(config)
        assert not resolve_spans_enabled(config)

    def test_explicit_config_wins(self):
        on = RuntimeConfig.nrd(metrics=True, spans=True)
        assert resolve_metrics_enabled(on) and resolve_spans_enabled(on)
        with use_instrumentation(metrics=True, spans=True):
            off = RuntimeConfig.nrd(metrics=False, spans=False)
            assert not resolve_metrics_enabled(off)
            assert not resolve_spans_enabled(off)

    def test_use_instrumentation_scopes_the_default(self):
        config = RuntimeConfig.nrd()
        with use_instrumentation(metrics=True, spans=True):
            assert resolve_metrics_enabled(config)
            assert resolve_spans_enabled(config)
        assert not resolve_metrics_enabled(config)
        assert not resolve_spans_enabled(config)

    def test_perfetto_path_implies_spans(self):
        config = RuntimeConfig.nrd(perfetto_path="/tmp/x.json")
        assert resolve_spans_enabled(config)
        assert not resolve_spans_enabled(
            RuntimeConfig.nrd(perfetto_path="/tmp/x.json", spans=False)
        )


class TestRender:
    def test_render_lists_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2)
        reg.histogram("h").observe(5)
        out = render_metrics(reg.snapshot())
        for token in ("c", "counter", "g", "gauge", "h", "histogram", "n=1"):
            assert token in out


class TestEngineIntegration:
    def test_result_metrics_empty_when_disabled(self):
        from repro.core.runner import parallelize
        from repro.workloads.synthetic import fully_parallel_loop

        result = parallelize(fully_parallel_loop(32), 2, RuntimeConfig.nrd())
        assert result.metrics == {}

    def test_result_metrics_populated_when_enabled(self):
        from repro.core.runner import parallelize
        from repro.workloads.synthetic import fully_parallel_loop

        # certify="off": the speculative pipeline's counters are the target
        # (the certified fast path skips marking/commit wholesale).
        result = parallelize(
            fully_parallel_loop(32), 2,
            RuntimeConfig.nrd(metrics=True, certify="off"),
        )
        counters = result.metrics["counters"]
        assert counters["exec.blocks"] == 2
        assert counters["commit.elements"] == 32
        assert counters["shadow.marks"] >= 32

    def test_feedback_scheduler_counts_its_traffic(self):
        # The balancer outlives single runs, so its counters live in a
        # program-scoped registry, not the per-run result snapshot.
        from repro.core.runner import run_program
        from repro.sched.feedback import FeedbackBalancer

        balancer = FeedbackBalancer(metrics=MetricsRegistry())
        run_program(
            [_chain(48), _chain(48)], 2,
            RuntimeConfig.adaptive(feedback_balancing=True),
            balancer=balancer,
        )
        counters = balancer.metrics.snapshot()["counters"]
        assert counters["sched.feedback.recordings"] == 2
        assert counters["sched.feedback.predictions"] == 1
        assert counters["sched.feedback.iterations_measured"] >= 48


def _chain(n):
    from repro.workloads.synthetic import chain_loop, geometric_chain_targets

    return chain_loop(n, geometric_chain_targets(n, 0.5))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
