"""The columnar probe trace, its vectorized dependence scans, and the
prefix-bounded exact probe.

:func:`repro.loopir.symbolic.trace_dependences` groups a flat-column
trace per element with one stable sort and scans every group at once.
These tests hold it to the per-element dict scan it replaced
(:mod:`tests.trace_reference`): generated traces must give equal
:class:`DependenceSummary` values on every field, and ``certify_loop``
must give equal certificates when its scan is swapped for the reference.
:func:`~repro.loopir.symbolic.affine_dependences` is held the same way to
the intersect-every-pair test it replaced for equal strides.
Structural guards count, rather than time, what the probe no longer does:
build one ``AccessRecord`` per access, fit affine sites on a full probe
whose verdict never reads them, run SPICE past its settled prefix, or
intersect two progressions of equal stride.

The prefix stop must never change a verdict: corpus loops, adversarial
loops built around the SEQUENTIAL threshold and generated loops get the
verdict :func:`~repro.model.certify.trace_verdict` gives on a full probe.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.loopir import symbolic
from repro.loopir.context import AccessRecord
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.loopir.symbolic import (
    AccessTrace,
    AffineSite,
    affine_dependences,
    probe_loop,
    trace_dependences,
)
from repro.model import certify as certify_mod
from repro.model.certify import (
    SEQUENTIAL,
    SPECULATE,
    certify_loop,
    trace_verdict,
)
from repro.workloads import (
    NLFILT_DECKS,
    SPICE_DECKS,
    make_dcdcmp15_loop,
    make_nlfilt_loop,
)
from repro.workloads.spice import make_dcdcmp70_loop
from repro.workloads.synthetic import (
    fully_parallel_loop,
    prefix_sum_loop,
    strided_doall_loop,
)
from tests.test_model_certify import _corpus
from tests.trace_reference import (
    reference_affine_dependences,
    reference_trace_dependences,
)

ARRAYS = ("A", "B", "C")

#: Indices at or above this are touched only by reduction updates, so a
#: trace can hold elements shared purely by commuting ``u`` accesses.
UPDATE_ONLY = 100

#: One generation step: (iteration advance, shape, kind, array, index,
#: distance).  ``one`` is a single access of ``kind``; ``raw`` a write
#: then a read of one element in one iteration; ``waw`` writes of one
#: element ``distance`` iterations apart; ``update`` a reduction update
#: on an update-only element.
steps = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(["one", "raw", "waw", "update"]),
        st.sampled_from("rwu"),
        st.integers(0, 2),
        st.integers(-2, 7),
        st.integers(1, 3),
    ),
    max_size=40,
)


@st.composite
def traces(draw) -> list[AccessRecord]:
    n_arrays = draw(st.integers(1, 3))
    iteration = 0
    records: list[AccessRecord] = []
    for advance, shape, kind, a, index, distance in draw(steps):
        iteration += advance
        name = ARRAYS[a % n_arrays]
        if shape == "one":
            records.append(AccessRecord(iteration, kind, name, index))
        elif shape == "raw":
            records.append(AccessRecord(iteration, "w", name, index))
            records.append(AccessRecord(iteration, "r", name, index))
        elif shape == "waw":
            records.append(AccessRecord(iteration, "w", name, index))
            records.append(AccessRecord(iteration + distance, "w", name, index))
        else:
            records.append(
                AccessRecord(iteration, "u", name, UPDATE_ONLY + index)
            )
    if draw(st.booleans()):
        # Probe order: iterations ascending, program order within one.
        records.sort(key=lambda r: r.iteration)
    return records


class TestScanMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(traces())
    def test_generated_traces(self, records):
        expected = reference_trace_dependences(records, 64)
        assert trace_dependences(records, 64) == expected
        columns = AccessTrace.from_records(records)
        assert columns.records() == records
        assert trace_dependences(columns, 64) == expected

    def test_empty_trace(self):
        expected = reference_trace_dependences([], 0)
        assert trace_dependences([], 0) == expected
        assert expected.critical_path == 1 and expected.flow_edges == []

    def test_update_only_elements_do_not_conflict(self):
        records = [AccessRecord(i, "u", "H", 3) for i in range(4)]
        deps = trace_dependences(records, 4)
        assert deps == reference_trace_dependences(records, 4)
        assert deps.conflicts == 0

    def test_read_after_write_in_one_iteration_is_not_flow(self):
        records = [AccessRecord(0, "w", "A", 1), AccessRecord(0, "r", "A", 1)]
        deps = trace_dependences(records, 1)
        assert deps == reference_trace_dependences(records, 1)
        assert deps.flow_edges == [] and deps.sink_iterations == 0

    def test_write_after_write_makes_a_sink(self):
        records = [AccessRecord(0, "w", "A", 1), AccessRecord(2, "w", "A", 1)]
        deps = trace_dependences(records, 3)
        assert deps == reference_trace_dependences(records, 3)
        assert (deps.conflicts, deps.sink_iterations) == (1, 1)


def _certify_loops():
    loops = dict(_corpus())
    loops["spice15-perfect-up"] = make_dcdcmp15_loop(SPICE_DECKS["perfect-up"])
    loops["spice70-perfect-up"] = make_dcdcmp70_loop(SPICE_DECKS["perfect-up"])
    loops["nlfilt-15-250"] = make_nlfilt_loop(NLFILT_DECKS["15-250"], 0)
    return loops


class TestCertificatesMatchReference:
    @pytest.mark.parametrize("name", sorted(_certify_loops()))
    def test_certificate_field_for_field(self, name, monkeypatch):
        got = certify_loop(_certify_loops()[name])
        with monkeypatch.context() as patch:
            # Both scans: the probe's prefix check and the certifier's own.
            for module in (certify_mod, symbolic):
                patch.setattr(
                    module,
                    "trace_dependences",
                    lambda trace, n: reference_trace_dependences(
                        trace.records(), n
                    ),
                )
            expected = certify_loop(_certify_loops()[name])
        assert dataclasses.asdict(got) == dataclasses.asdict(expected)

    @pytest.mark.parametrize("name", sorted(_certify_loops()))
    def test_probe_scan_matches_reference(self, name):
        loop = _certify_loops()[name]
        probe = probe_loop(loop)
        if not probe.full:
            pytest.skip("sampled probe: no exact trace to scan")
        assert trace_dependences(probe.trace, loop.n_iterations) == (
            reference_trace_dependences(probe.records, loop.n_iterations)
        )


class TestStructuralGuards:
    def test_spice_certify_builds_no_access_records(self, monkeypatch):
        built = []
        init = AccessRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AccessRecord, "__init__", counting_init)
        cert = certify_loop(make_dcdcmp15_loop(SPICE_DECKS["perfect-up"]))
        assert cert.basis == "trace"
        # The probe stops after its prefix (see TestPrefixStop).
        assert cert.stats["probed"] == 256 < cert.stats["n"] == 2048
        assert built == []
        # The counter does see records built through the lazy view.
        assert len(probe_loop(prefix_sum_loop(4)).records) == len(built) > 0

    def test_full_probe_never_fits_sites(self, monkeypatch):
        calls = []
        fit = symbolic._fit_sites

        def counting_fit(*args):
            calls.append(1)
            return fit(*args)

        monkeypatch.setattr(symbolic, "_fit_sites", counting_fit)
        cert = certify_loop(make_dcdcmp15_loop(SPICE_DECKS["perfect-up"]))
        assert cert.basis == "trace"
        assert calls == []
        # A sampled probe still fits, once, from the same columns.
        cert = certify_loop(strided_doall_loop(10_000))
        assert cert.basis == "affine"
        assert calls == [1]

    def test_spice_certify_runs_one_prefix_and_one_scan(self, monkeypatch):
        scans = []
        for module in (certify_mod, symbolic):
            scan = module.trace_dependences

            def counting_scan(trace, n, scan=scan):
                scans.append(len(trace))
                return scan(trace, n)

            monkeypatch.setattr(module, "trace_dependences", counting_scan)
        loop = make_dcdcmp15_loop(SPICE_DECKS["perfect-up"])
        calls = []

        def counting_body(ctx, i, body=loop.body):
            calls.append(i)
            body(ctx, i)

        cert = certify_loop(dataclasses.replace(loop, body=counting_body))
        assert (cert.verdict, cert.basis, cert.exact) == (SPECULATE, "trace", True)
        assert calls == list(range(256))
        assert len(scans) == 1

    def test_equal_strides_skip_the_intersection(self, monkeypatch):
        calls = []
        intersect = np.intersect1d

        def counting_intersect(*args, **kwargs):
            calls.append(1)
            return intersect(*args, **kwargs)

        monkeypatch.setattr(np, "intersect1d", counting_intersect)
        cert = certify_loop(fully_parallel_loop(16384))
        assert (cert.basis, cert.stats["sites"]) == ("affine", 2)
        assert calls == []
        # Unequal strides still intersect.
        affine_dependences(
            [AffineSite(0, "w", "A", 2, 0), AffineSite(1, "r", "A", 3, 1)], 64
        )
        assert calls == [1]


# -- affine dependences: closed form for equal strides ----------------------------

sites_lists = st.lists(
    st.tuples(
        st.sampled_from("rwu"),
        st.sampled_from("AB"),
        st.sampled_from([-3, -2, -1, 0, 1, 1, 2, 2, 3]),
        st.integers(-24, 24),
    ),
    max_size=6,
)


class TestAffineClosedForm:
    @settings(max_examples=400, deadline=None)
    @given(sites_lists, st.integers(0, 64))
    def test_matches_the_intersection_reference(self, raw, n):
        sites = [
            AffineSite(ordinal, kind, array, stride, offset)
            for ordinal, (kind, array, stride, offset) in enumerate(raw)
        ]
        assert affine_dependences(sites, n) == (
            reference_affine_dependences(sites, n)
        )

    @pytest.mark.parametrize("delta", [-3, -1, 1, 3, 7, 9])
    def test_equal_stride_pair(self, delta):
        # w A[2i] against r A[2i - 2*delta]: iteration i meets i - delta.
        sites = [
            AffineSite(0, "w", "A", 2, 0),
            AffineSite(1, "r", "A", 2, 2 * delta),
        ]
        deps = affine_dependences(sites, 8)
        assert deps == reference_affine_dependences(sites, 8)
        pairs = max(0, 8 - abs(delta))
        assert deps.conflicts == pairs
        assert deps.max_distance == (abs(delta) if pairs else 0)
        flows = pairs if delta < 0 else 0
        assert len(deps.flow_edges) == flows

    def test_offsets_off_the_stride_never_meet(self):
        sites = [AffineSite(0, "w", "A", 3, 0), AffineSite(1, "r", "A", 3, 1)]
        deps = affine_dependences(sites, 100)
        assert deps == reference_affine_dependences(sites, 100)
        assert deps.conflicts == 0


# -- the prefix-bounded exact probe -----------------------------------------------


def _full_verdict(loop) -> tuple:
    """:func:`trace_verdict` applied to a probe that runs to the end."""
    probe = probe_loop(loop)
    n = loop.n_iterations
    executed = n if probe.exit_at is None else probe.exit_at + 1
    deps = trace_dependences(probe.trace, n)
    return trace_verdict(deps, executed, probe.exit_at)


def _chain_loop(
    name, n, sources, conflicts=(0, 1), exit_at=None, raise_at=None
) -> SpeculativeLoop:
    """Iteration ``i`` reads ``A[sources[i]]`` (when it is >= 0) and writes
    ``A[i]``: a flow edge ``sources[i] -> i`` when ``sources[i] < i``.
    The iterations in ``conflicts`` also write ``H[0]``."""
    src = [int(s) for s in sources]
    hot = set(conflicts)

    def body(ctx, i):
        x = ctx.load("A", src[i]) if src[i] >= 0 else 0.0
        ctx.store("A", i, x + 1.0)
        if i in hot:
            ctx.store("H", 0, float(i))
        if i == raise_at:
            raise RuntimeError(f"iteration {i} fails")
        if i == exit_at:
            ctx.exit_loop()

    return SpeculativeLoop(
        name, n, body,
        arrays=[ArraySpec("A", np.zeros(n)), ArraySpec("H", np.zeros(1))],
    )


def _chain_sources(n, nodes) -> list[int]:
    """Sources linking ``nodes`` (ascending) into one flow chain."""
    src = [-1] * n
    for prev, node in zip(nodes, nodes[1:]):
        src[node] = prev
    return src


def _check_point(n) -> int:
    return max(symbolic.PREFIX_CHECK, n // 8)


def _late_chain(n, length, **kwargs):
    """An early conflict, then one chain over the last ``length``
    iterations."""
    return _chain_loop(
        f"late-chain-{length}", n,
        _chain_sources(n, list(range(n - length, n))), **kwargs,
    )


def _spread_chain(n, length):
    """One chain through ``length`` iterations spread over the loop."""
    skipped = set(np.linspace(0, n - 1, n - length).astype(int).tolist())
    nodes = [i for i in range(n) if i not in skipped]
    assert len(nodes) == length
    return _chain_loop(f"spread-chain-{length}", n, _chain_sources(n, nodes))


def _threshold(n) -> int:
    """The shortest chain that makes a loop of ``n`` SEQUENTIAL."""
    return math.ceil(certify_mod._SEQUENTIAL_CHAIN_FRACTION * n)


class TestPrefixStop:
    @pytest.mark.parametrize("name", sorted(_certify_loops()))
    def test_corpus_verdicts_match_the_full_scan(self, name):
        loop = _certify_loops()[name]
        cert = certify_loop(loop)
        verdict, reason, hint, window = _full_verdict(loop)
        assert cert.verdict == verdict
        if cert.stats["probed"] < cert.stats["n"] and cert.exact:
            assert verdict == SPECULATE
            assert cert.reason.startswith(f"prefix {cert.stats['probed']}/")
        else:
            assert (cert.reason, cert.strategy_hint, cert.window_hint) == (
                reason, hint, window
            )

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_late_chain_at_the_threshold_stays_sequential(self, n):
        # Its prefix holds a conflict and only the head of the chain; the
        # bound reaches 0.9 n exactly through the unprobed tail.
        loop = _late_chain(n, _threshold(n))
        cert = certify_loop(loop)
        assert (cert.verdict, cert.stats["probed"]) == (SEQUENTIAL, n)
        assert _full_verdict(loop)[0] == SEQUENTIAL

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_late_chain_one_short_stops_at_the_check(self, n):
        loop = _late_chain(n, _threshold(n) - 1)
        cert = certify_loop(loop)
        assert (cert.verdict, cert.basis, cert.exact) == (
            SPECULATE, "trace", True
        )
        assert cert.stats["probed"] == _check_point(n)
        assert cert.reason.startswith(f"prefix {_check_point(n)}/{n}: ")
        assert _full_verdict(loop)[0] == SPECULATE

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_chain_starting_after_the_check_cannot_be_sequential(self, n):
        # Such a chain spans at most n - n/8 < 0.9 n iterations, so the
        # prefix's conflict settles SPECULATE and the full scan agrees.
        loop = _late_chain(n, n - _check_point(n) - 1)
        cert = certify_loop(loop)
        assert (cert.verdict, cert.stats["probed"]) == (
            SPECULATE, _check_point(n)
        )
        assert _full_verdict(loop)[0] == SPECULATE

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_spread_chain_just_above_the_threshold(self, n):
        loop = _spread_chain(n, _threshold(n))
        cert = certify_loop(loop)
        assert (cert.verdict, cert.stats["probed"]) == (SEQUENTIAL, n)
        assert _full_verdict(loop)[0] == SEQUENTIAL

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_spread_chain_just_below_the_threshold(self, n):
        loop = _spread_chain(n, _threshold(n) - 1)
        assert certify_loop(loop).verdict == SPECULATE
        assert _full_verdict(loop)[0] == SPECULATE

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_exit_after_the_check_is_not_sequential(self, n):
        check = _check_point(n)
        for exit_at in (check, check + 1, n // 2, n - 2):
            loop = _late_chain(n, _threshold(n) - 1, exit_at=exit_at)
            cert = certify_loop(loop)
            assert cert.verdict == SPECULATE
            assert cert.stats["probed"] == check and "exit_at" not in cert.stats
            verdict, reason, _, _ = _full_verdict(loop)
            assert verdict == SPECULATE and "before exit" in reason

    def test_body_raising_after_the_check_gets_an_exact_certificate(self):
        # The probe never runs the raising iteration, so the certificate
        # is the prefix's exact SPECULATE, not "opaque".  Nothing acts on
        # either, and the run raises as it does without certification.
        n = 1024
        loop = _late_chain(n, 8, raise_at=n - 1)
        cert = certify_loop(loop)
        assert (cert.verdict, cert.basis, cert.exact) == (
            SPECULATE, "trace", True
        )
        assert cert.stats["probed"] == _check_point(n)
        for mode in ("hint", "off"):
            with pytest.raises(RuntimeError, match=f"iteration {n - 1} fails"):
                parallelize(loop, 4, RuntimeConfig.adaptive(certify=mode))
        # Before the check point the probe still aborts on it.
        early = _late_chain(n, 8, raise_at=10)
        cert = certify_loop(early)
        assert (cert.verdict, cert.basis, cert.exact) == (
            SPECULATE, "opaque", False
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([257, 1024, 2048, 4096]) | st.integers(1, 4096),
        start=st.floats(0.0, 0.3),
        length=st.floats(0.0, 1.0),
        near=st.none() | st.integers(-2, 2),
        skip=st.sampled_from([0, 7, 10, 11, 64]),
        conflicts=st.lists(st.floats(0.0, 1.0), max_size=3),
        extra=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=8),
        exit_at=st.none() | st.floats(0.0, 1.0),
    )
    def test_generated_loops_keep_their_full_probe_verdict(
        self, n, start, length, near, skip, conflicts, extra, exit_at
    ):
        if near is None:
            first = int(start * n)
            last = first + int(length * (n - first))
        else:
            # A chain ending the loop, ``near`` iterations off the
            # SEQUENTIAL threshold.
            first, last = max(0, n - _threshold(n) - near), n
        nodes = [
            i for i in range(first, last) if not skip or i % skip != skip - 1
        ]
        src = _chain_sources(n, nodes)
        for a, b in extra:
            src[min(n - 1, int(b * n))] = min(n - 1, int(a * n))
        loop = _chain_loop(
            "generated", n, src,
            conflicts=[min(n - 1, int(c * n)) for c in conflicts],
            exit_at=None if exit_at is None else min(n - 1, int(exit_at * n)),
        )
        cert = certify_loop(loop)
        verdict, reason, hint, window = _full_verdict(loop)
        assert cert.verdict == verdict
        if cert.stats["probed"] < n and cert.stats.get("exit_at") is None:
            assert verdict == SPECULATE and cert.reason.startswith("prefix ")
        else:
            assert (cert.reason, cert.strategy_hint, cert.window_hint) == (
                reason, hint, window
            )
