"""Lightweight metrics registry: counters, gauges and histograms.

The runtime's quantitative layer.  A :class:`MetricsRegistry` owns named
instruments; instrumented code (the engine, both execution backends, the
speculative context, shadow/commit/checkpoint helpers, the feedback
scheduler) asks the registry for an instrument once and then updates it.
Every recorded value is **deterministic** -- element counts, byte counts,
mark counts, retry counts -- never host seconds, so a metrics snapshot is
reproducible bit-for-bit across runs and across execution backends (host
wall-clock lives in the span layer, :mod:`repro.obs.spans`).

Cost discipline:

* **Disabled** (the default): ``registry.counter(...)`` hands back a shared
  null instrument whose ``inc``/``set``/``observe`` are no-ops, and hot
  paths that accumulate locally check ``registry.enabled`` once per block
  before flushing.  The per-access cost is a plain slot-attribute integer
  increment.
* **Enabled**: instruments are plain attribute updates; the registry is a
  dict of instruments, snapshotted once per stage for the event stream.

Pool-backend workers accumulate into a private registry and ship its
:meth:`~MetricsRegistry.snapshot` back inside the per-block delta; the
parent :meth:`~MetricsRegistry.merge`\\ s deltas in block order, so the
merged totals equal a serial run's exactly (integer/float sums of the same
per-block contributions).

The process-wide default (:func:`use_instrumentation`) mirrors
:func:`repro.core.backend.use_backend`: a config that leaves
``metrics``/``spans`` as ``None`` picks the scoped default, which is how
the golden parity suite runs its whole matrix fully instrumented without
threading flags through every driver.
"""

from __future__ import annotations

import contextlib


class Counter:
    """Monotonically increasing count (elements copied, marks set, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value (pool size, window width, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of a value distribution: count/total/min/max."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()
    name = "<null>"
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments for one run (or one pool worker's share of one).

    ``counter``/``gauge``/``histogram`` create on first use and return the
    existing instrument afterwards; on a disabled registry they return a
    shared null instrument, so call sites never branch.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- snapshot / merge -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready state: sorted, deterministic, merge-compatible."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram summaries add; gauges take the incoming
        value (last write wins, matching serial in-order execution when
        deltas are merged in block order).
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            h = self.histogram(name)
            if not summary["count"]:
                continue
            h.count += summary["count"]
            h.total += summary["total"]
            if h.min is None or summary["min"] < h.min:
                h.min = summary["min"]
            if h.max is None or summary["max"] > h.max:
                h.max = summary["max"]

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: Shared disabled registry: the default ``machine.metrics`` everywhere.
NULL_REGISTRY = MetricsRegistry(enabled=False)


# -- process-wide instrumentation defaults ------------------------------------------

_default_metrics = False
_default_spans = False


def instrumentation_defaults() -> tuple[bool, bool]:
    """Current process-wide ``(metrics, spans)`` defaults."""
    return _default_metrics, _default_spans


@contextlib.contextmanager
def use_instrumentation(metrics: bool = True, spans: bool = True):
    """Scope the instrumentation defaults: every run started inside the
    ``with`` whose config leaves ``metrics``/``spans`` as ``None`` uses
    these values.  Lets existing entry points (and the golden parity
    suite) run fully instrumented without threading flags through every
    call."""
    global _default_metrics, _default_spans
    previous = (_default_metrics, _default_spans)
    _default_metrics, _default_spans = metrics, spans
    try:
        yield
    finally:
        _default_metrics, _default_spans = previous


def resolve_metrics_enabled(config) -> bool:
    """Whether a config turns the metrics registry on."""
    value = getattr(config, "metrics", None)
    return _default_metrics if value is None else bool(value)


def resolve_spans_enabled(config) -> bool:
    """Whether a config turns span tracing on (an explicit ``--perfetto``
    output path implies spans, there being nothing to export otherwise)."""
    value = getattr(config, "spans", None)
    if value is not None:
        return bool(value)
    if getattr(config, "perfetto_path", None):
        return True
    return _default_spans


def render_metrics(snapshot: dict) -> str:
    """Human-readable table of one registry snapshot."""
    from repro.util.tables import format_table

    rows: list[list] = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append([name, "counter", value])
    for name, value in snapshot.get("gauges", {}).items():
        rows.append([name, "gauge", value])
    for name, summary in snapshot.get("histograms", {}).items():
        if summary["count"]:
            rendered = (
                f"n={summary['count']} total={summary['total']:g} "
                f"min={summary['min']:g} max={summary['max']:g}"
            )
        else:
            rendered = "n=0"
        rows.append([name, "histogram", rendered])
    rows.sort(key=lambda r: r[0])
    return format_table(["metric", "kind", "value"], rows, title="metrics")
