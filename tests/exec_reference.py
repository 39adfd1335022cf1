"""Reference speculative executor for the differential tests.

A per-access :class:`~repro.loopir.context.IterationContext` in the shape
the speculative context had before access lanes and the per-block charge
fold: every access calls the private view, the shadow and the checkpoint
manager through their methods, and every charge goes straight to
``Machine.charge`` as it happens.  :func:`reference_execute_block` drives it
through a block the way :func:`repro.core.executor.execute_block` does.
The production path must agree with it on values, marks, checkpoint
state, counts and ``per_proc`` rows, float for float.
"""

from __future__ import annotations

from repro.loopir.context import IterationContext
from repro.machine.timeline import Category


class PerAccessContext(IterationContext):
    __slots__ = (
        "_machine", "_proc", "_views", "_shadows", "_partials",
        "_reductions", "_ckpt", "_inductions", "_costs", "_slowdown",
        "_untested_log", "iter_marks", "iter_time", "iter_work", "marks",
        "copyin", "ckpt_saved", "exit_iteration", "fault", "fault_permanent",
    )

    def __init__(self, machine, loop, state, checkpoints, inductions=None,
                 slowdown=1.0, untested_log=None) -> None:
        super().__init__()
        self._machine = machine
        self._proc = state.proc
        self._views = state.views
        self._shadows = state.shadows
        self._partials = state.partials
        self._reductions = loop.reductions
        self._ckpt = checkpoints
        self._inductions = dict(inductions or {})
        self._costs = machine.costs
        self._slowdown = slowdown
        self._untested_log = untested_log
        self.iter_marks = None
        self.iter_time = 0.0
        self.iter_work = 0.0
        self.marks = 0
        self.copyin: dict[str, int] = {}
        self.ckpt_saved: dict[str, int] = {}
        self.exit_iteration = None
        self.fault = None
        self.fault_permanent = False

    def _charge(self, category: Category, amount: float) -> None:
        if amount:
            self._machine.charge(self._proc, category, amount)
            self.iter_time += amount

    def charge_work(self, amount: float) -> None:
        self.iter_work += amount
        self._charge(Category.WORK, amount * self._slowdown)

    def _reject_reduction(self, name: str) -> None:
        if name in self._reductions:
            raise ValueError(
                f"array {name!r} is declared a reduction; use update() only"
            )

    def load(self, name, index):
        self._reject_reduction(name)
        view = self._views.get(name)
        if view is None:
            if self._untested_log is not None:
                self._untested_log.note_read(self._proc, name, index)
            return self._machine.memory[name].data[index]
        value, copied_in = view.load(index)
        self._shadows[name].mark_read(index)
        self.marks += 1
        self._charge(Category.MARK, self._costs.mark * self._slowdown)
        if copied_in:
            self.copyin[name] = self.copyin.get(name, 0) + 1
            self._charge(Category.COPY_IN, self._costs.copy_in * self._slowdown)
        if self.iter_marks is not None:
            self.iter_marks[name].mark_read(index)
        return value

    def store(self, name, index, value) -> None:
        self._reject_reduction(name)
        view = self._views.get(name)
        if view is None:
            if self._untested_log is not None:
                self._untested_log.note_write(self._proc, name, index)
            ckpt = self._ckpt
            if ckpt is not None and name in ckpt.name_set:
                saved = ckpt.note_write(self._proc, name, index)
                if saved:
                    self.ckpt_saved[name] = self.ckpt_saved.get(name, 0) + saved
                    self._charge(
                        Category.CHECKPOINT,
                        self._costs.checkpoint_per_elem * saved * self._slowdown,
                    )
            self._machine.memory[name].data[index] = value
            return
        view.store(index, value)
        self._shadows[name].mark_write(index)
        self.marks += 1
        self._charge(Category.MARK, self._costs.mark * self._slowdown)
        if self.iter_marks is not None:
            self.iter_marks[name].mark_write(index, value)

    def update(self, name, index, value) -> None:
        op = self._reductions.get(name)
        if op is None:
            raise ValueError(f"array {name!r} has no declared reduction operator")
        partial = self._partials.setdefault(name, {})
        partial[index] = op.combine(partial.get(index, op.identity), value)
        self._shadows[name].mark_update(index)
        self.marks += 1
        self._charge(Category.MARK, self._costs.mark * self._slowdown)
        if self.iter_marks is not None:
            self.iter_marks[name].mark_update(index)

    def bump(self, name):
        value = self._inductions[name]
        self._inductions[name] = value + 1
        return value

    def peek(self, name):
        return self._inductions[name]

    def induction_values(self):
        return dict(self._inductions)

    def work(self, units) -> None:
        if units < 0:
            raise ValueError("work units must be non-negative")
        self.charge_work(units * self._costs.omega)

    def exit_loop(self) -> None:
        if self.exit_iteration is None:
            self.exit_iteration = self.iteration

    def flush_charges(self) -> None:
        """Nothing to write back: every charge already reached the row."""


def reference_execute_block(machine, loop, state, block, checkpoints,
                            inductions=None, marklists=None, untested_log=None,
                            slowdown=1.0, death=None) -> PerAccessContext:
    ctx = PerAccessContext(
        machine, loop, state, checkpoints, inductions,
        slowdown=slowdown, untested_log=untested_log,
    )
    omega = machine.costs.omega
    completed = 0
    for i in block.iterations():
        if death is not None and completed >= death[0]:
            ctx.fault = "fail-stop"
            ctx.fault_permanent = death[1]
            break
        ctx.iteration = i
        ctx.iter_time = 0.0
        ctx.iter_work = 0.0
        if marklists is not None:
            ctx.iter_marks = {name: ml.open_level(i) for name, ml in marklists.items()}
        ctx.charge_work(omega if loop.iter_work is None else loop.work_of(i) * omega)
        loop.body(ctx, i)
        state.iter_times[i] = ctx.iter_time
        state.iter_work[i] = ctx.iter_work
        completed += 1
        if ctx.exit_iteration is not None:
            break
    state.executed.append(block)
    return ctx
