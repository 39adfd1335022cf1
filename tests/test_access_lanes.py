"""Access lanes against the per-access reference executor.

:func:`repro.core.executor.execute_block` runs loads and stores through
per-array lanes that touch view, shadow and checkpoint storage inline.
The reference (:mod:`tests.exec_reference`) calls the owning objects'
methods and charges ``Machine.charge`` per access.  Random bodies over
every lane kind must leave the two in the same state, and the lanes must
not fall back on the method chain for the shipped representations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backend import make_capture_checkpoint
from repro.core.executor import execute_block, make_plain_state, make_processor_state
from repro.faults.selfcheck import UntestedAccessLog
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.loopir.reductions import ReductionOp
from repro.machine.checkpoint import CheckpointManager
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import DensePrivateView
from repro.shadow.dense import DenseShadow
from repro.shadow.marklist import MarkList
from repro.util.bitset import BitSet
from repro.util.blocks import Block
from tests.exec_reference import reference_execute_block

N = 16
N_ITERATIONS = 8

#: Dense tested, sparse tested, checkpointed untested, plain untested (never
#: under a stage checkpoint) and a dense reduction array.
ARRAY_NAMES = ("A", "S", "B", "C", "H")
TESTED = ("A", "S", "H")

COSTS = CostModel(
    omega=1.3, mark=0.07, copy_in=0.1, bulk_copy_per_elem=0.023,
    checkpoint_per_elem=0.03,
)

in_range = st.integers(0, N - 1)
valid_op_st = st.one_of(
    st.tuples(
        st.sampled_from(("load", "store")), st.sampled_from(("A", "S", "B", "C")),
        in_range, st.integers(0, 7),
    ),
    st.tuples(st.just("update"), st.just("H"), in_range, st.integers(0, 7)),
    st.tuples(st.just("work"), st.just("A"), st.just(0), st.integers(0, 7)),
)
#: Negative and past-the-end indices, and accesses the array's declaration
#: forbids (a load or store of the reduction array, an update of another).
invalid_op_st = st.tuples(
    st.sampled_from(("load", "store", "update")), st.sampled_from(ARRAY_NAMES),
    st.integers(-3, N + 3), st.integers(0, 7),
)
# Rare invalid ops, so most programs run through to compare end states.
op_st = st.sampled_from([False] * 63 + [True]).flatmap(
    lambda invalid: invalid_op_st if invalid else valid_op_st
)
program_st = st.lists(
    st.lists(op_st, max_size=5), min_size=N_ITERATIONS, max_size=N_ITERATIONS
)


def make_loop(program, out):
    def body(ctx, i):
        acc = 1.0
        for op, name, index, k in program[i]:
            if op == "load":
                value = ctx.load(name, index)
                out.append((i, name, index, type(value), value))
                acc = acc * 0.5 + value
            elif op == "store":
                ctx.store(name, index, acc + k * 0.25)
            elif op == "update":
                ctx.update(name, index, k + 0.5)
            else:
                ctx.work(k * 0.3)

    arrays = [
        ArraySpec("A", np.linspace(0.1, 1.7, N), tested=True, sparse=False),
        ArraySpec("S", np.linspace(0.2, 3.1, N), tested=True, sparse=True),
        ArraySpec("B", np.arange(N, dtype=np.float64), tested=False),
        ArraySpec("C", np.arange(N, dtype=np.float64) * 2.0, tested=False),
        ArraySpec("H", np.zeros(N), tested=True, sparse=False),
    ]
    return SpeculativeLoop(
        "lanes", N_ITERATIONS, body, arrays=arrays,
        reductions={"H": ReductionOp.SUM},
    )


def run(execute, program, *, ckpt_mode, plain, marks, log, slowdown, split):
    """Two blocks (procs 0 and 1) of one stage through ``execute``; returns
    everything the two executors must agree on."""
    out: list = []
    loop = make_loop(program, out)
    machine = Machine(2, costs=COSTS, memory=loop.materialize())
    machine.begin_stage()
    if plain:
        states = {p: make_plain_state(p) for p in range(2)}
    else:
        states = {p: make_processor_state(machine, loop, p) for p in range(2)}
    if ckpt_mode == "capture":
        ckpt = make_capture_checkpoint(machine.memory)
    elif ckpt_mode is None:
        ckpt = None
    else:
        ckpt = CheckpointManager(machine.memory, ["B"], on_demand=ckpt_mode == "on-demand")
        ckpt.begin_stage()
    untested_log = UntestedAccessLog() if log else None
    marklists = {}
    counts = []
    error = None
    try:
        for proc, (start, stop) in enumerate(((0, split), (split, N_ITERATIONS))):
            if marks:
                marklists[proc] = {
                    name: MarkList(name, proc, log_values=True) for name in TESTED
                }
            ctx = execute(
                machine, loop, states[proc], Block(proc, start, stop), ckpt,
                marklists=marklists.get(proc), untested_log=untested_log,
                slowdown=slowdown,
            )
            counts.append(_counts(ctx))
    except Exception as exc:  # the type is what the executors must agree on
        error = type(exc)
    result = {"out": out, "error": error}
    if error is not None:
        return result
    result.update(
        counts=counts,
        memory={name: machine.memory[name].data.tolist() for name in ARRAY_NAMES},
        rows=[
            [(proc, list(row.items())) for proc, row in stage.per_proc.items()]
            for stage in machine.timeline.stages
        ],
        states=[_state(states[p]) for p in range(2)],
        marklists={
            (proc, name): [repr(level) for level in ml.levels]
            for proc, lists in marklists.items() for name, ml in lists.items()
        },
    )
    if ckpt is not None:
        result["ckpt"] = (ckpt._saved, ckpt._writers, ckpt.elements_checkpointed)
    if untested_log is not None:
        result["log"] = (untested_log.reads, untested_log.writes)
    return result


def _counts(ctx):
    """Marks, copy-ins and checkpointed elements of one block."""
    if hasattr(ctx, "copyin"):
        return ctx.marks, ctx.copyin, ctx.ckpt_saved
    return ctx._m_marks, ctx._m_copyin, ctx._m_ckpt


def _state(state):
    shadows = {
        name: (
            shadow.write_set(), shadow.exposed_read_set(),
            shadow.any_read_set(), shadow.update_set(),
        )
        for name, shadow in state.shadows.items()
    }
    views = {}
    for name, view in state.views.items():
        indices, values = view.written_arrays()
        if isinstance(view, DensePrivateView):
            local = (view._have.tolist(), view._values.tolist())
        else:
            local = sorted(view._values.items())
        views[name] = (indices.tolist(), values.tolist(), local)
    return (
        shadows, views, state.partials, state.iter_times, state.iter_work,
        state.executed,
    )


@settings(max_examples=200, deadline=None)
@given(
    program=program_st,
    ckpt_mode=st.sampled_from((None, "on-demand", "full", "capture")),
    plain=st.booleans(),
    marks=st.booleans(),
    log=st.booleans(),
    slowdown=st.sampled_from((1.0, 1.37)),
    split=st.integers(0, N_ITERATIONS),
)
def test_lanes_match_per_access_reference(
    program, ckpt_mode, plain, marks, log, slowdown, split
):
    kwargs = dict(
        ckpt_mode=ckpt_mode, plain=plain, marks=marks and not plain, log=log,
        slowdown=slowdown, split=split,
    )
    got = run(execute_block, program, **kwargs)
    want = run(reference_execute_block, program, **kwargs)
    assert got == want


@pytest.mark.parametrize("index", [-1, -N, N, N + 5])
@pytest.mark.parametrize("name", ["A", "S"])
@pytest.mark.parametrize("op", ["load", "store"])
def test_tested_index_outside_array_raises_index_error(op, name, index):
    program = [[(op, name, index, 1)]] + [[] for _ in range(N_ITERATIONS - 1)]
    for execute in (execute_block, reference_execute_block):
        got = run(
            execute, program, ckpt_mode=None, plain=False, marks=False,
            log=False, slowdown=1.0, split=N_ITERATIONS,
        )
        assert got["error"] is IndexError


def test_reduction_arrays_reject_load_and_store():
    for op in ("load", "store"):
        program = [[(op, "H", 0, 1)]] + [[] for _ in range(N_ITERATIONS - 1)]
        got = run(
            execute_block, program, ckpt_mode=None, plain=False, marks=False,
            log=False, slowdown=1.0, split=N_ITERATIONS,
        )
        assert got["error"] is ValueError


# -- the lanes bypass the method chain -------------------------------------------


GUARDED = [
    (DensePrivateView, "load"),
    (DensePrivateView, "store"),
    (DenseShadow, "mark_read"),
    (DenseShadow, "mark_write"),
    (BitSet, "set"),
    (BitSet, "test"),
    (CheckpointManager, "note_write"),
]


def count_guarded_calls(monkeypatch, execute, loop, names):
    calls = {f"{cls.__name__}.{attr}": 0 for cls, attr in GUARDED}
    for cls, attr in GUARDED:
        original = getattr(cls, attr)
        key = f"{cls.__name__}.{attr}"

        def spy(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, attr, spy)
    machine = Machine(1, memory=loop.materialize())
    machine.begin_stage()
    state = make_processor_state(machine, loop, 0)
    ckpt = CheckpointManager(machine.memory, names, on_demand=True)
    ckpt.begin_stage()
    execute(machine, loop, state, Block(0, 0, loop.n_iterations), ckpt)
    return calls


def test_speculative_doall_block_makes_no_per_access_method_calls(monkeypatch):
    from repro.workloads.synthetic import fully_parallel_loop

    loop = fully_parallel_loop(1024)
    calls = count_guarded_calls(monkeypatch, execute_block, loop, [])
    assert set(calls.values()) == {0}, calls
    # The spies do count: the per-access reference goes through them.
    ref = count_guarded_calls(monkeypatch, reference_execute_block, loop, [])
    assert ref["DensePrivateView.load"] == ref["DenseShadow.mark_write"] == 1024


def test_checkpointed_store_makes_no_note_write_call(monkeypatch):
    def body(ctx, i):
        ctx.store("B", i, ctx.load("A", i) + 1.0)

    loop = SpeculativeLoop(
        "ckpt", 256, body,
        arrays=[
            ArraySpec("A", np.arange(256.0), tested=True, sparse=False),
            ArraySpec("B", np.zeros(256), tested=False),
        ],
    )
    calls = count_guarded_calls(monkeypatch, execute_block, loop, ["B"])
    assert set(calls.values()) == {0}, calls
    ref = count_guarded_calls(monkeypatch, reference_execute_block, loop, ["B"])
    assert ref["CheckpointManager.note_write"] == 256


# -- memoryview lifetime ----------------------------------------------------------


@pytest.mark.parametrize("fails", [False, True])
def test_block_releases_its_memoryviews(fails):
    """Dense lanes export the view's and shadow's buffers; a shared-memory
    segment holding them can only close once the block has let go, also
    when the body raised."""
    from multiprocessing import shared_memory

    def body(ctx, i):
        ctx.store("A", i, ctx.load("A", i) + 1.0)
        if fails and i == 3:
            raise RuntimeError("body failed")

    loop = SpeculativeLoop("shm-lanes", 8, body, arrays=[ArraySpec("A", np.zeros(8))])
    machine = Machine(1, memory=loop.materialize())
    machine.begin_stage()
    state = make_processor_state(machine, loop, 0)
    view, shadow = state.views["A"], state.shadows["A"]
    seg = shared_memory.SharedMemory(create=True, size=2 * 8 + 3 * 8)
    try:
        # np.frombuffer holds its export of the segment, as ShmArena's
        # views do, so the segment closes only once every view is gone.
        view._have = np.frombuffer(seg.buf, dtype=bool, count=8)
        view._written = np.frombuffer(seg.buf, dtype=bool, count=8, offset=8)
        for k, plane in enumerate(("_write", "_exposed", "_any_read")):
            words = np.frombuffer(seg.buf, dtype=np.uint64, count=1, offset=16 + 8 * k)
            setattr(shadow, plane, BitSet(8, words=words))
        del words
        if fails:
            with pytest.raises(RuntimeError) as raised:
                execute_block(machine, loop, state, Block(0, 0, 8), None)
            held = raised  # the traceback keeps the block's frame alive
        else:
            held = execute_block(machine, loop, state, Block(0, 0, 8), None)
            assert shadow.write_set() == set(range(8))
        view._have = view._written = None
        shadow._write = shadow._exposed = shadow._any_read = None
        seg.close()  # BufferError while a lane still exported a buffer
        del held
    finally:
        seg.unlink()
