"""Host-speed calibration: express measured seconds on a reference host.

The hosts this benchmark runs on share their CPUs with other tenants, and
their speed drifts by a third within minutes: the same warm DOALL call,
timed in 10-second windows of one process, had window medians from 0.18 to
0.31 s.  A fixed calibration timed between calls drifts with it, so each
call's wall time is multiplied by ``reference / calibration`` (the mean of
the calibrations just before and just after the call) and every time the
benchmark reports is in *reference-host seconds*.

``compute`` imitates the speculative access path (a method call, a private
dict, a tuple-keyed mark set, an enum-keyed charge table and numpy scalar
reads per element) and tracks the speed of one CPU; it calibrates the
serial workloads.  Workloads with worker threads or processes also feel
thread wake-up and GIL hand-off latency, which one-CPU speed does not
show, so they are calibrated by the geometric mean of ``compute`` and
``handoff``: nine rounds of small tasks passed to two worker threads
through queues, as a backend dispatches blocks.  Over 10-second windows
on the host the bounds were set on, this cut the window-to-window spread
of the median call from 21% to 4% on ``doall-dense`` (compute alone), 10%
to 4% on ``spice-threads`` and 9% to 3% on ``spice-shm`` (the pair).

Neither kernel runs package code, so a runtime change moves calibrated and
raw figures alike.  Never edit them: a different kernel rescales every
figure.
"""

from __future__ import annotations

import enum
import queue
import threading
import time

import numpy as np

#: Calibration seconds on the reference host (2-CPU VM, Python 3.11) in a
#: quiet spell, for ``compute`` alone and for the pair; a call scaled to
#: them reads as it would there.
REFERENCE_COMPUTE_S = 0.015
REFERENCE_PAIR_S = 0.010
_N = 8192
_ROUNDS = 9
_TASK = 4000


class _Cat(enum.Enum):
    WORK = 1
    MARK = 2


class _Context:
    def __init__(self, n: int) -> None:
        self.shared = np.arange(n, dtype=np.float64)
        self.private: dict[int, float] = {}
        self.marks: set[tuple[str, int]] = set()
        self.charge = {_Cat.WORK: 0.0, _Cat.MARK: 0.0}

    def load(self, i: int) -> float:
        value = self.private.get(i)
        if value is None:
            value = float(self.shared[i])
            self.marks.add(("R", i))
            self.charge[_Cat.MARK] += 1.0
        return value

    def store(self, i: int, value: float) -> None:
        self.private[i] = value
        self.marks.add(("W", i))
        self.charge[_Cat.WORK] += 2.0


def compute_seconds() -> float:
    """Wall seconds of one run of the one-CPU kernel."""
    start = time.perf_counter()
    ctx = _Context(_N)
    for i in range(_N):
        ctx.store(i, ctx.load(i) * 2.0 + 1.0)
    np.array([ctx.private[i] for i in range(_N)]).sum()
    return time.perf_counter() - start


def _worker(tasks: queue.Queue, done: queue.Queue) -> None:
    while (n := tasks.get()) is not None:
        total = 0
        for i in range(n):
            total += i * i % 7
        done.put(total)


class Calibration:
    """Host-speed calibration for one workload.  With ``handoff`` it keeps
    two idle worker threads for the hand-off kernel; use it as a context
    manager so they are stopped and joined."""

    def __init__(self, handoff: bool) -> None:
        self.handoff = handoff
        self.reference = REFERENCE_PAIR_S if handoff else REFERENCE_COMPUTE_S
        self._tasks = [queue.Queue() for _ in range(2)] if handoff else []
        self._done: queue.Queue = queue.Queue()
        self._threads = [
            threading.Thread(target=_worker, args=(q, self._done), daemon=True)
            for q in self._tasks
        ]

    def __enter__(self) -> "Calibration":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        for q in self._tasks:
            q.put(None)
        for thread in self._threads:
            thread.join(timeout=10)

    def handoff_seconds(self) -> float:
        """Wall seconds of nine two-thread dispatch rounds."""
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            for q in self._tasks:
                q.put(_TASK)
            for _ in self._tasks:
                self._done.get()
        return time.perf_counter() - start

    def seconds(self) -> float:
        """One calibration measurement."""
        if not self.handoff:
            return compute_seconds()
        return (compute_seconds() * self.handoff_seconds()) ** 0.5

    def factor(self, samples: int = 3) -> float:
        """Reference over the median of ``samples`` calibrations: multiply
        a wall time measured just before by it to get reference seconds."""
        times = sorted(self.seconds() for _ in range(samples))
        return self.reference / times[len(times) // 2]
