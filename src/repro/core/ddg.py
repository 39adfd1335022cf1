"""Data-dependence-graph extraction with the sliding-window R-LRPD test.

For loops whose dependence structure makes the plain R-LRPD schedule nearly
sequential (e.g. SPICE's sparse LU factorization, partially parallel with a
short critical path), Section 3 extracts the full iteration DDG instead:

* the shadow is organized as an N-level *mark list* (one level per
  iteration assigned to a processor);
* a *last reference table* maintains the last committed write (and read)
  of each memory address, detecting cross-window dependences;
* every discovered dependence is logged into the *inverted edge table*.

Extraction rides on the normal sliding-window execution: only committed
(provably correct) iterations contribute edges and last-reference entries;
failed blocks are re-executed and their edges re-discovered.  The result is
the exact DDG of the loop *for this input*, which the wavefront scheduler
(:mod:`repro.core.wavefront`) turns into an optimized schedule -- reusable
across instantiations as long as the access pattern (e.g. the circuit
topology) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.config import RuntimeConfig, Strategy
from repro.core.analysis import analyze_stage
from repro.core.commit import commit_states, reinit_states
from repro.core.engine import require_fault_support, require_serial_backend
from repro.core.executor import execute_block
from repro.core.results import RunResult, StageResult
from repro.core.stage import (
    charge_analysis,
    charge_checkpoint_begin,
    committed_work,
    make_speculative_machine,
    perform_restore,
    record_iter_times,
)
from repro.core.window import default_window
from repro.errors import ConfigurationError, NoProgressError, SpeculationError
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.memory import MemoryImage
from repro.shadow.edges import DependenceEdge, EdgeKind, InvertedEdgeTable
from repro.shadow.lastref import LastReferenceTable
from repro.shadow.marklist import IterationMarks, MarkList
from repro.util.blocks import Block


@dataclass
class DDGResult:
    """Extracted dependence graph plus the run that produced it."""

    loop_name: str
    n_iterations: int
    edges: InvertedEdgeTable
    extraction: RunResult

    def graph(self) -> nx.DiGraph:
        return self.edges.to_graph(self.n_iterations)

    def flow_pairs(self) -> set[tuple[int, int]]:
        return self.edges.iteration_pairs([EdgeKind.FLOW])


def _log_iteration_edges(
    edges: InvertedEdgeTable,
    lastref: LastReferenceTable,
    iteration: int,
    marks_by_array: dict[str, IterationMarks],
) -> None:
    """Log edges ending at ``iteration`` and update the last-reference table.

    Reduction updates are treated conservatively as read-modify-writes for
    graph purposes (commuting them is a scheduling extension, not needed for
    correctness of the wavefront order).
    """
    for name, marks in marks_by_array.items():
        reads = marks.exposed_reads | marks.updates
        writes = marks.writes | marks.updates
        for index in reads:
            w = lastref.last_write(name, index)
            if w is not None and w < iteration:
                edges.log(DependenceEdge(w, iteration, EdgeKind.FLOW, name, index))
        for index in writes:
            for r in lastref.readers_since_write(name, index):
                if r < iteration:
                    edges.log(
                        DependenceEdge(r, iteration, EdgeKind.ANTI, name, index)
                    )
            w = lastref.last_write(name, index)
            if w is not None and w < iteration:
                edges.log(DependenceEdge(w, iteration, EdgeKind.OUTPUT, name, index))
    for name, marks in marks_by_array.items():
        for index in marks.exposed_reads | marks.updates:
            lastref.record_read(name, index, iteration)
        for index in marks.writes | marks.updates:
            lastref.record_write(name, index, iteration)


def extract_ddg(
    loop: SpeculativeLoop,
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> DDGResult:
    """Execute ``loop`` under the SW R-LRPD test while extracting its DDG."""
    config = config or RuntimeConfig.sw()
    require_fault_support(config, "DDG extraction")
    require_serial_backend(config, "DDG extraction")
    if config.strategy is not Strategy.SLIDING_WINDOW:
        raise ConfigurationError("DDG extraction uses the sliding-window strategy")
    if loop.inductions:
        raise ConfigurationError(
            "DDG extraction does not support speculative inductions"
        )

    machine, states, ckpt = make_speculative_machine(
        loop, n_procs, config, costs, memory
    )

    n = loop.n_iterations
    window = config.window_size or default_window(n_procs)
    b = max(1, window // n_procs)
    tested = loop.tested_names

    edges = InvertedEdgeTable()
    lastref = LastReferenceTable()
    committed_upto = 0
    stage_results: list[StageResult] = []
    sequential_work = 0.0
    final_iter_times: dict[int, float] = {}
    stage_idx = 0

    def block_at(j: int) -> Block:
        start = min(j * b, n)
        return Block(j % n_procs, start, min(start + b, n))

    while committed_upto < n:
        if stage_idx >= config.max_stages:
            raise SpeculationError(
                f"{loop.name}: exceeded max_stages={config.max_stages}"
            )
        j0 = committed_upto // b
        window_blocks: list[Block] = []
        marklists: dict[int, dict[str, MarkList]] = {}
        for j in range(j0, j0 + n_procs):
            blk = block_at(j)
            if len(blk) == 0:
                break
            window_blocks.append(blk)
        if not window_blocks:
            raise SpeculationError(f"{loop.name}: empty window with work left")

        record = machine.begin_stage()
        charge_checkpoint_begin(machine, ckpt)
        for block in window_blocks:
            ml = {name: MarkList(name, block.proc) for name in tested}
            marklists[block.proc] = ml
            ctx = execute_block(
                machine, loop, states[block.proc], block, ckpt, marklists=ml
            )
            if ctx.exit_iteration is not None:
                raise ConfigurationError(
                    f"{loop.name}: premature exits need the blocked runner"
                )
        machine.barrier()

        groups = [(blk.proc, states[blk.proc].shadows) for blk in window_blocks]
        analysis = analyze_stage(groups)
        charge_analysis(machine, analysis, [blk.proc for blk in window_blocks])

        f_pos = analysis.earliest_sink_pos
        committing = window_blocks if f_pos is None else window_blocks[:f_pos]
        failing = [] if f_pos is None else window_blocks[f_pos:]
        if not committing:
            raise NoProgressError(
                f"{loop.name}: DDG window stage {stage_idx} committed nothing"
            )

        committed_elements = commit_states(
            machine, loop, [states[blk.proc] for blk in committing]
        )
        stage_work = committed_work(states, committing)
        sequential_work += stage_work

        # Harvest edges from the committed (correct) iterations, in order.
        for block in committing:
            ml_dict = marklists[block.proc]
            for k, i in enumerate(block.iterations()):
                marks = {name: ml_dict[name].level(k) for name in tested}
                _log_iteration_edges(edges, lastref, i, marks)
        record_iter_times(final_iter_times, states, committing)

        restored = perform_restore(machine, ckpt, [blk.proc for blk in failing])
        reinit_states(machine, [states[blk.proc] for blk in failing])
        for block in committing:
            states[block.proc].reset()

        committed_upto = committing[-1].stop
        stage_results.append(
            StageResult(
                index=stage_idx,
                blocks=list(window_blocks),
                failed=f_pos is not None,
                earliest_sink_pos=f_pos,
                committed_iterations=sum(len(blk) for blk in committing),
                remaining_after=n - committed_upto,
                committed_work=stage_work,
                n_arcs=len(analysis.arcs),
                committed_elements=committed_elements,
                restored_elements=restored,
                redistributed_iterations=0,
                span=record.span(),
                breakdown=record.breakdown(),
            )
        )
        stage_idx += 1

    extraction = RunResult(
        loop_name=loop.name,
        strategy=f"SW-DDG(w={window})",
        n_procs=n_procs,
        n_iterations=n,
        stages=stage_results,
        timeline=machine.timeline,
        sequential_work=sequential_work,
        iteration_times=final_iter_times,
        memory=machine.memory,
    )
    return DDGResult(
        loop_name=loop.name,
        n_iterations=n,
        edges=edges,
        extraction=extraction,
    )
