"""The columnar probe trace and its vectorized dependence scan.

:func:`repro.loopir.symbolic.trace_dependences` groups a flat-column
trace per element with one stable sort and scans every group at once.
These tests hold it to the per-element dict scan it replaced
(:mod:`tests.trace_reference`): generated traces must give equal
:class:`DependenceSummary` values on every field, and ``certify_loop``
must give equal certificates when its scan is swapped for the reference.
Two structural guards count, rather than time, what the probe no longer
does: build one ``AccessRecord`` per access, and fit affine sites on a
full probe whose verdict never reads them.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.loopir import symbolic
from repro.loopir.context import AccessRecord
from repro.loopir.symbolic import AccessTrace, probe_loop, trace_dependences
from repro.model import certify as certify_mod
from repro.model.certify import certify_loop
from repro.workloads import (
    NLFILT_DECKS,
    SPICE_DECKS,
    make_dcdcmp15_loop,
    make_nlfilt_loop,
)
from repro.workloads.spice import make_dcdcmp70_loop
from repro.workloads.synthetic import prefix_sum_loop, strided_doall_loop
from tests.test_model_certify import _corpus
from tests.trace_reference import reference_trace_dependences

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
            patch.setattr(
                certify_mod,
                "trace_dependences",
                lambda trace, n: reference_trace_dependences(trace.records(), n),
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
        assert cert.basis == "trace" and cert.stats["probed"] == 2048
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
