"""Per-layer tracing for the benchmark's traced pass.

The runtime is not instrumented for this: the benchmark wraps the public
layer entry points at the names their callers resolve, records one host
span per call into them, and removes every wrapper when the pass ends.
The block spans come from the ``SpanClosed`` events the engine already
emits when ``spans`` is on, collected through a ``parallelize`` sink.

Spans live in memory as ``[name, start, end, parent, call, track]`` rows
(``perf_counter`` seconds, parent = row index or ``None``) and are written
once, at the end, as Chrome trace-event JSON that Perfetto loads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from contextlib import contextmanager

#: (module, attribute, layer name) of the wrapped module-level functions.
FUNCTION_LAYERS = (
    ("repro.core.runner", "certify_loop", "certify"),
    ("repro.core.engine", "analyze_stage", "analysis"),
    ("repro.core.engine", "commit_states", "commit"),
    ("repro.core.engine", "reinit_states", "reinit"),
    ("repro.core.engine", "perform_restore", "restore"),
)

#: (method, layer name) wrapped on the workload's backend class.
BACKEND_LAYERS = (("run_blocks", "execute"), ("close", "close"))

LAYERS = [layer for *_, layer in FUNCTION_LAYERS] + [layer for _, layer in BACKEND_LAYERS]

NAME, START, END, PARENT, CALL, TRACK = range(6)
_MISSING = object()


class SpanLog:
    """In-memory span store with a stack of open spans on the engine track."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._call: int | None = None
        self._last_execute: int | None = None

    def begin(self, name: str, now: float) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, now, None, parent, self._call, 0])
        index = len(self.spans) - 1
        self._open.append(index)
        if name == "execute":
            self._last_execute = index
        return index

    def end(self, index: int, now: float) -> None:
        self.spans[index][END] = now
        self._open.remove(index)

    def add_block(self, start: float, end: float, proc: int) -> None:
        """A backend block span; its parent is the dispatch that ran it
        (the engine emits block spans after ``run_blocks`` returns)."""
        self.spans.append(["block", start, end, self._last_execute, self._call, proc + 1])

    @contextmanager
    def call(self, call_id: int, clock):
        """Root span of one ``parallelize`` call."""
        self._call = call_id
        index = self.begin("call", clock())
        try:
            yield index
        finally:
            self.end(index, clock())
            self._call = None
            self._last_execute = None

    def wrap(self, fn, name: str, clock):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index, clock())

        traced.perfbench_layer = name
        return traced


class BlockSpanSink:
    """Event sink turning the engine's block ``SpanClosed`` events into
    spans on the benchmark clock.  Block host times are relative to the
    run's start, which ``RunBegin`` marks."""

    def __init__(self, log: SpanLog, clock) -> None:
        self.log = log
        self.clock = clock
        self.t0 = 0.0

    def emit(self, event) -> None:
        if event.kind == "run_begin":
            self.t0 = self.clock()
        elif event.kind == "span" and event.cat == "block":
            start = self.t0 + event.host_start
            self.log.add_block(start, start + event.host_dur, event.proc)


def _targets(backend_cls):
    for module_name, attr, layer in FUNCTION_LAYERS:
        yield importlib.import_module(module_name), attr, layer
    for attr, layer in BACKEND_LAYERS:
        yield backend_cls, attr, layer


@contextmanager
def installed(log: SpanLog, backend_cls, clock):
    """Wrap every layer entry point for the duration of the ``with``."""
    saved = []
    try:
        for owner, attr, layer in _targets(backend_cls):
            own = owner.__dict__.get(attr, _MISSING)
            saved.append((owner, attr, own))
            setattr(owner, attr, log.wrap(getattr(owner, attr), layer, clock))
        yield
    finally:
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def leftover_wrappers(backend_cls) -> list[str]:
    """Names of layer entry points that are still wrapped (should be none)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in _targets(backend_cls)
        if hasattr(getattr(owner, attr), "perfbench_layer")
    ]


@contextmanager
def counting_charges():
    """Count ``Machine.charge`` calls made in this process; yields a
    callable returning the count so far (read it once, at the end).  Too
    hot to leave on while timing."""
    from repro.machine.machine import Machine

    original = Machine.__dict__["charge"]
    counter = itertools.count()

    def charge(self, proc, category, amount):
        next(counter)
        return original(self, proc, category, amount)

    Machine.charge = charge
    try:
        yield lambda: next(counter)
    finally:
        Machine.charge = original


# -- per-call accounting -----------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def call_layers(spans: list[list], root: int) -> dict[str, float]:
    """Host seconds per layer inside the call span at ``root`` (the last
    call recorded, so every later span belongs to it), plus engine self
    time."""
    mine = spans[root + 1:]
    out = dict.fromkeys(LAYERS, 0.0) | {"execute.calls": 0, "execute.first_s": 0.0}
    direct = 0.0
    for span in mine:
        name = span[NAME]
        if name == "block":
            continue
        dur = span[END] - span[START]
        out[name] += dur
        if span[PARENT] == root:
            direct += dur
        if name == "execute":
            if out["execute.calls"] == 0:
                out["execute.first_s"] = dur
            out["execute.calls"] += 1
    out["block"] = union_length((s[START], s[END]) for s in mine if s[NAME] == "block")
    out["engine.self"] = spans[root][END] - spans[root][START] - direct
    return out


def self_time_table(spans: list[list], n_calls: int) -> list[tuple[str, float, float, float]]:
    """``(layer, spans per call, total s per call, self s per call)`` rows.

    Self time is a span's duration minus what its child spans cover; block
    children of a dispatch overlap, so their union is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    rows: dict[str, list[float]] = {}
    for index, span in enumerate(spans):
        dur = span[END] - span[START]
        covered = union_length(children.get(index, ()))
        row = rows.setdefault(span[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered
    n = max(1, n_calls)
    return [
        (layer, count / n, total / n, own / n)
        for layer, (count, total, own) in rows.items()
    ]


def chrome_trace(spans: list[list], meta: dict) -> dict:
    """Chrome trace-event JSON (``X`` complete events, microseconds)."""
    origin = min((s[START] for s in spans), default=0.0)
    tracks = sorted({s[TRACK] for s in spans})
    events = [
        {
            "name": "thread_name", "ph": "M", "pid": 1, "tid": track,
            "args": {"name": "engine" if track == 0 else f"proc {track - 1}"},
        }
        for track in tracks
    ]
    for index, span in enumerate(spans):
        events.append({
            "name": span[NAME],
            "cat": "block" if span[TRACK] else "layer",
            "ph": "X", "pid": 1, "tid": span[TRACK],
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "args": {"span": index, "parent": span[PARENT], "call": span[CALL]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


def write_chrome_trace(path, spans: list[list], meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, meta)))
