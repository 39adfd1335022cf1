"""Unit tests for speculative block execution and virtual-time charging."""

from collections import defaultdict

import numpy as np
import pytest

from repro.core.executor import (
    BlockCancelled,
    SpeculativeContext,
    execute_block,
    make_processor_state,
)
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.loopir.reductions import ReductionOp
from repro.machine.checkpoint import CheckpointManager
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.timeline import Category
from repro.util.blocks import Block
from tests.exec_reference import PerAccessContext, reference_execute_block


def make_loop(body, n=8, tested=("A",), untested=(), reductions=None):
    arrays = [ArraySpec(name, np.arange(16.0), tested=True) for name in tested]
    arrays += [ArraySpec(name, np.arange(16.0), tested=False) for name in untested]
    return SpeculativeLoop(
        "t", n, body, arrays=arrays, reductions=reductions or {}
    )


def setup(loop, n_procs=2):
    machine = Machine(n_procs, memory=loop.materialize())
    machine.begin_stage()
    states = {p: make_processor_state(machine, loop, p) for p in range(n_procs)}
    return machine, states


class TestSpeculativeContext:
    def test_tested_store_stays_private(self):
        loop = make_loop(lambda ctx, i: ctx.store("A", i, -1.0))
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert machine.memory["A"].data[0] == 0.0  # shared untouched
        assert dict(states[0].views["A"].written_items())[0] == -1.0

    def test_untested_store_writes_through(self):
        loop = make_loop(
            lambda ctx, i: ctx.store("B", i, -1.0), tested=(), untested=("B",)
        )
        machine, states = setup(loop)
        ckpt = CheckpointManager(machine.memory, ["B"], on_demand=True)
        ckpt.begin_stage()
        execute_block(machine, loop, states[0], Block(0, 0, 4), ckpt)
        assert machine.memory["B"].data[0] == -1.0

    def test_untested_write_checkpoints_first_touch(self):
        loop = make_loop(
            lambda ctx, i: ctx.store("B", 0, float(i)),
            tested=(), untested=("B",),
        )
        machine, states = setup(loop)
        ckpt = CheckpointManager(machine.memory, ["B"], on_demand=True)
        ckpt.begin_stage()
        execute_block(machine, loop, states[0], Block(0, 0, 4), ckpt)
        assert ckpt.elements_checkpointed == 1  # one element, many writes

    def test_marking_charged_per_reference(self):
        loop = make_loop(lambda ctx, i: ctx.store("A", i, 0.0))
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert machine.timeline.current.category_total(Category.MARK) == (
            pytest.approx(4 * machine.costs.mark)
        )

    def test_copyin_charged_once_per_element(self):
        def body(ctx, i):
            ctx.load("A", 0)
            ctx.load("A", 0)

        loop = make_loop(body)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        # Only the very first load of element 0 copies in.
        assert machine.timeline.current.category_total(Category.COPY_IN) == (
            pytest.approx(machine.costs.copy_in)
        )

    def test_base_work_charged(self):
        loop = make_loop(lambda ctx, i: None)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert machine.timeline.current.category_total(Category.WORK) == (
            pytest.approx(4 * machine.costs.omega)
        )

    def test_extra_work_charged(self):
        loop = make_loop(lambda ctx, i: ctx.work(2.0))
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 1), None)
        assert machine.timeline.current.category_total(Category.WORK) == (
            pytest.approx(3.0 * machine.costs.omega)
        )

    def test_iter_times_recorded(self):
        loop = make_loop(lambda ctx, i: None)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 2, 5), None)
        assert set(states[0].iter_times) == {2, 3, 4}
        assert states[0].iter_work[2] == pytest.approx(machine.costs.omega)

    def test_reduction_update_accumulates_partial(self):
        loop = make_loop(
            lambda ctx, i: ctx.update("A", 3, 1.0),
            reductions={"A": ReductionOp.SUM},
        )
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert states[0].partials["A"][3] == 4.0
        assert machine.memory["A"].data[3] == 3.0  # shared untouched

    def test_load_of_reduction_array_rejected(self):
        loop = make_loop(
            lambda ctx, i: ctx.load("A", 0),
            reductions={"A": ReductionOp.SUM},
        )
        machine, states = setup(loop)
        with pytest.raises(ValueError):
            execute_block(machine, loop, states[0], Block(0, 0, 1), None)

    def test_update_without_operator_rejected(self):
        loop = make_loop(lambda ctx, i: ctx.update("A", 0, 1.0))
        machine, states = setup(loop)
        with pytest.raises(ValueError):
            execute_block(machine, loop, states[0], Block(0, 0, 1), None)

    def test_bump_uninitialized_rejected(self):
        loop = make_loop(lambda ctx, i: ctx.bump("k"))
        machine, states = setup(loop)
        with pytest.raises(KeyError):
            execute_block(machine, loop, states[0], Block(0, 0, 1), None)

    def test_bump_with_offsets(self):
        seen = []
        loop = make_loop(lambda ctx, i: seen.append(ctx.bump("k")))
        machine, states = setup(loop)
        ctx = execute_block(
            machine, loop, states[0], Block(0, 0, 3), None, inductions={"k": 10}
        )
        assert seen == [10, 11, 12]
        assert ctx.induction_values() == {"k": 13}

    def test_shadow_marks_reads_and_writes(self):
        def body(ctx, i):
            ctx.load("A", i)
            ctx.store("A", i + 8, 0.0)

        loop = make_loop(body)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        sh = states[0].shadows["A"]
        assert sh.exposed_read_set() == {0, 1, 2, 3}
        assert sh.write_set() == {8, 9, 10, 11}


class TestProcessorState:
    def test_distinct_refs_and_written(self):
        def body(ctx, i):
            ctx.load("A", i)
            ctx.store("A", i, 1.0)

        loop = make_loop(body)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert states[0].distinct_refs() == 4
        assert states[0].n_written() == 4

    def test_reset_keeps_iter_times(self):
        loop = make_loop(lambda ctx, i: ctx.store("A", i, 1.0))
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        states[0].reset()
        assert states[0].n_written() == 0
        assert states[0].shadows["A"].is_clear()
        assert len(states[0].iter_times) == 4  # measurements persist


# -- the per-block charge fold --------------------------------------------------


def rows(machine):
    """Every stage's ``per_proc`` table, values and key order included."""
    return [
        [(proc, list(row.items())) for proc, row in stage.per_proc.items()]
        for stage in machine.timeline.stages
    ]


def fold_loop(body=None, iter_work=None):
    """Tested dense ``A``, tested sparse ``S``, untested ``B``; the default
    body charges WORK, MARK, COPY_IN and CHECKPOINT with repeats of each."""

    def default_body(ctx, i):
        ctx.store("A", i, ctx.load("A", i) * 0.3 + ctx.load("A", (i + 5) % 16))
        ctx.store("S", i % 3, ctx.load("S", i % 5) + 0.7)
        ctx.store("B", i % 6, float(i))
        ctx.work(0.37)

    arrays = [
        ArraySpec("A", np.linspace(0.1, 1.7, 16), tested=True, sparse=False),
        ArraySpec("S", np.linspace(0.2, 3.1, 16), tested=True, sparse=True),
        ArraySpec("B", np.arange(16.0), tested=False),
    ]
    return SpeculativeLoop(
        "fold", 16, body or default_body, arrays=arrays, iter_work=iter_work
    )


#: Unit costs whose sums round: per-access and folded charging only agree
#: if the fold performs the same additions in the same order.
FOLD_COSTS = CostModel(
    omega=1.3, mark=0.07, copy_in=0.1, bulk_copy_per_elem=0.023,
    checkpoint_per_elem=0.03,
)


def run_blocks(execute, blocks, *, preload=False, loop=None, costs=FOLD_COSTS,
               **block_kwargs):
    """Run ``blocks`` (each ``(proc, start, stop)``) in one stage through
    ``execute`` (``execute_block`` or the per-access reference); returns
    the machine, the last context and the processor states."""
    loop = loop or fold_loop()
    machine = Machine(2, costs=costs, memory=loop.materialize())
    machine.begin_stage()
    # An earlier charge on proc 0's row that the block must not disturb.
    machine.charge(0, Category.REDISTRIBUTION, 0.11)
    states = {p: make_processor_state(machine, loop, p) for p in range(2)}
    ckpt = CheckpointManager(machine.memory, ["B"], on_demand=True)
    ckpt.begin_stage()
    if preload:
        states[0].preload(machine)
    ctx = None
    for proc, start, stop in blocks:
        ctx = execute(
            machine, loop, states[proc], Block(proc, start, stop), ckpt,
            **block_kwargs,
        )
    return machine, ctx, states


class TestChargeFold:
    """The fold must leave ``per_proc`` exactly as per-access charging did."""

    def both(self, blocks, **kwargs):
        ref, _, ref_states = run_blocks(reference_execute_block, blocks, **kwargs)
        got, ctx, states = run_blocks(execute_block, blocks, **kwargs)
        assert rows(got) == rows(ref)
        for proc in states:
            assert states[proc].iter_times == ref_states[proc].iter_times
            assert states[proc].iter_work == ref_states[proc].iter_work
        return got, ctx

    def test_one_block(self):
        got, _ = self.both([(0, 0, 8)])
        row = got.timeline.current.per_proc[0]
        assert list(row) == [
            Category.REDISTRIBUTION, Category.WORK, Category.MARK,
            Category.COPY_IN, Category.CHECKPOINT,
        ]

    def test_first_appearance_key_order_and_zero_charges(self):
        def body(ctx, i):
            ctx.store("B", i, 1.0)
            ctx.load("S", i)
            ctx.work(0.5)

        loop = fold_loop(body, iter_work=lambda i: 0.0)
        costs = CostModel(mark=0.0, copy_in=0.1, checkpoint_per_elem=0.03)
        got, _ = self.both([(1, 0, 8)], loop=loop, costs=costs)
        # Zero base work and zero-cost marks create no key; the rest land
        # in the order the block first charged them.
        assert list(got.timeline.current.per_proc[1]) == [
            Category.CHECKPOINT, Category.COPY_IN, Category.WORK,
        ]

    def test_two_blocks_on_one_processor_in_one_stage(self):
        self.both([(0, 0, 5), (1, 5, 9), (0, 9, 16)])

    def test_preload_then_copy_in(self):
        got, _ = self.both([(0, 0, 16)], preload=True)
        row = got.timeline.current.per_proc[0]
        costs = FOLD_COSTS
        preloaded = costs.bulk_copy_per_elem * 16  # only dense A preloads
        # The sparse view still copies in on demand (five distinct S
        # elements), on top of the preload's COPY_IN.
        seeded = preloaded
        for _ in range(5):
            seeded += costs.copy_in
        assert row[Category.COPY_IN] == seeded
        # Why the fold seeds from the row: a zero-started block sum added
        # once at the end rounds differently here.
        block_sum = 0.0
        for _ in range(5):
            block_sum += costs.copy_in
        assert preloaded + block_sum != seeded

    def test_straggler_slowdown(self):
        self.both([(0, 0, 8), (1, 8, 16)], slowdown=1.37)

    def test_fail_stop_mid_block_keeps_completed_charges(self):
        got, ctx = self.both([(1, 0, 8)], death=(3, False))
        assert ctx.fault == "fail-stop"
        row = got.timeline.current.per_proc[1]
        assert row[Category.WORK] == pytest.approx(3 * 1.37 * FOLD_COSTS.omega)

    def test_cancelled_block_charges_nothing(self):
        """The threads backend's cooperative cancel: the block raises at an
        iteration boundary and, like a killed worker, charges nothing."""

        class CancelAfter:
            def __init__(self, n):
                self.checks = 0
                self.n = n

            def is_set(self):
                self.checks += 1
                return self.checks > self.n

        loop = fold_loop()
        machine = Machine(2, costs=FOLD_COSTS, memory=loop.materialize())
        machine.begin_stage()
        state = make_processor_state(machine, loop, 1)
        with pytest.raises(BlockCancelled):
            execute_block(
                machine, loop, state, Block(1, 0, 8), None, cancel=CancelAfter(4)
            )
        assert len(state.iter_times) == 4  # four iterations did run
        assert dict(machine.timeline.current.per_proc) == {}

    def test_context_built_before_begin_stage(self):
        def drive(context_cls):
            loop = fold_loop()
            machine = Machine(2, costs=FOLD_COSTS, memory=loop.materialize())
            states = {p: make_processor_state(machine, loop, p) for p in range(2)}
            ckpt = CheckpointManager(machine.memory, ["B"], on_demand=True)
            contexts = {p: context_cls(machine, loop, states[p], ckpt) for p in range(2)}
            machine.begin_stage()
            ckpt.begin_stage()
            ctx = contexts[0]
            for i in range(4):
                ctx.iteration = i
                loop.body(ctx, i)
            for idle in contexts.values():
                idle.flush_charges()
            return machine

        got = drive(SpeculativeContext)
        assert rows(got) == rows(drive(PerAccessContext))
        # Processor 1 built a context but charged nothing: no empty row.
        assert list(got.timeline.current.per_proc) == [0]


class CountingRow(dict):
    """A stage row that counts its writes."""

    writes = 0

    def __setitem__(self, key, value):
        CountingRow.writes += 1
        super().__setitem__(key, value)

    def __missing__(self, key):
        return 0.0


class TestFoldIsPerBlock:
    def count_row_writes(self, execute):
        from repro.workloads.synthetic import fully_parallel_loop

        loop = fully_parallel_loop(1024)
        machine = Machine(1, memory=loop.materialize())
        record = machine.begin_stage()
        record.per_proc = defaultdict(CountingRow)
        state = make_processor_state(machine, loop, 0)
        CountingRow.writes = 0
        execute(machine, loop, state, Block(0, 0, 1024), None)
        return CountingRow.writes

    def test_serial_doall_block_writes_once_per_category(self):
        # WORK, MARK and COPY_IN: one write each for 4096 charges.
        assert self.count_row_writes(execute_block) == 3
        # The per-access reference writes once per charge.
        assert self.count_row_writes(reference_execute_block) == 4 * 1024
