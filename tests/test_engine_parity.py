"""Cross-driver parity: the engine must reproduce the seed drivers bit-exactly.

``tests/data/engine_golden.json`` was captured from the pre-engine
per-driver implementations on fixed seeds.  Every case here re-runs the
same (workload, config, fault plan) through the :class:`StageEngine`
strategies and demands identical observables: final-memory hash, stage
counts, committed-iteration sequences and virtual-time totals down to the
float's repr.

Each case runs under every execution backend (:mod:`repro.core.backend`):
the golden values were captured from in-process serial execution, so a
passing ``shm`` or ``threads`` run proves the worker-pool dispatch, delta
shipping and in-order merge are bit-identical to serial -- results, events and virtual
time alike.
"""

import json

import pytest

from repro.core.backend import backend_names, use_backend
from repro.obs.metrics import use_instrumentation
from tests.engine_parity_cases import CASES, GOLDEN_PATH, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_matrix_is_complete():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_to_seed(name, backend):
    with use_backend(backend):
        got = run_case(name)
    want = GOLDEN[name]
    for key in want:
        assert got[key] == want[key], (
            f"{name} [{backend}]: {key} diverged from seed behavior"
        )
    assert got == want


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_fully_instrumented(name, backend):
    """Metrics + span collection must not perturb any observable: the
    whole golden matrix re-runs with full instrumentation on (scoped via
    the process-wide default, so no driver needs to know) and must still
    match the seed bit-for-bit under both backends."""
    with use_backend(backend), use_instrumentation(metrics=True, spans=True):
        got = run_case(name)
    want = GOLDEN[name]
    for key in want:
        assert got[key] == want[key], (
            f"{name} [{backend}, instrumented]: {key} diverged from seed behavior"
        )
    assert got == want
