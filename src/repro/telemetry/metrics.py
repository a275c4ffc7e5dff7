"""Process-local metrics primitives.

Three metric kinds, modelled on the Prometheus client data model but
with none of its machinery:

* :class:`Counter` -- a monotonically increasing total;
* :class:`Gauge` -- a value that can move both ways (set at summary
  points, e.g. "services inferred" after a replay);
* :class:`Histogram` -- fixed log-spaced buckets plus sum/count, for
  durations and sizes.

Metrics live in a :class:`MetricRegistry`, keyed by ``(name, labels)``.
Span timings (:func:`repro.telemetry.tracing.span`) are two of them.

Zero overhead by default
------------------------
The module-level active registry starts as a :class:`NullRegistry`
whose ``counter``/``gauge``/``histogram`` return one shared no-op
singleton.  Instrumented code follows two rules:

* **aggregate** increments (once per pass, per sweep, per experiment)
  may go through the active registry unconditionally -- on the null
  registry they cost one attribute lookup and a no-op call;
* **hot-path** instrumentation (per-record taps, chunk timers,
  generator wrappers) must be gated on ``registry().enabled`` so the
  disabled pipeline runs byte-for-byte the same code it always did.

Enabling telemetry (:func:`enable`) swaps in a real
:class:`MetricRegistry`; it must never change any experiment result,
only record what happened.

Naming scheme: ``repro_<layer>_<name>`` with Prometheus conventions
(``_total`` for counters, ``_seconds`` for durations).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator

#: Label set as stored internally: sorted ``(key, value)`` pairs.
LabelItems = tuple[tuple[str, str], ...]

#: Default histogram buckets: log-spaced powers of two from 100 us to
#: ~14 min, suitable for both chunk timings and whole-pass durations.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = tuple(1e-4 * 2**i for i in range(24))


def _label_items(labels: dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    help: str = ""
    labels: LabelItems = ()
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up or down (set at summary points)."""

    name: str
    help: str = ""
    labels: LabelItems = ()
    value: float = 0.0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Fixed-bucket histogram with log-spaced default bounds.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative per bucket); the final implicit ``+Inf`` bucket is
    ``overflow``.  Exporters render cumulative Prometheus buckets.
    """

    name: str
    help: str = ""
    labels: LabelItems = ()
    bounds: tuple[float, ...] = DEFAULT_TIME_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    overflow: int = 0
    sum: float = 0.0
    count: int = 0

    kind = "histogram"

    def __post_init__(self) -> None:
        if not self.bounds or tuple(sorted(self.bounds)) != tuple(self.bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        if not self.bucket_counts:
            self.bucket_counts = [0] * len(self.bounds)

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        index = bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.bucket_counts[index] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricRegistry:
    """A live collection of metrics.

    A worker process names itself with *process*; its span series carry
    that as a label, so they stay attributable once merged at home.
    """

    enabled = True

    def __init__(self, process: str | None = None) -> None:
        self._metrics: dict[tuple[str, LabelItems], Counter | Gauge | Histogram] = {}
        self.process = process

    # ---- get-or-create ------------------------------------------------

    def _get(self, cls, name: str, help: str, labels: dict, **extra):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, help=help, labels=key[1], **extra)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        extra = {} if bounds is None else {"bounds": tuple(bounds)}
        return self._get(Histogram, name, help, labels, **extra)

    # ---- introspection ------------------------------------------------

    def collect(self) -> Iterator[Counter | Gauge | Histogram]:
        """All metrics, sorted by (name, labels) for stable output."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def value(self, name: str, **labels: str) -> float | None:
        """Scalar value of a counter/gauge, or None when absent."""
        metric = self._metrics.get((name, _label_items(labels)))
        if metric is None or isinstance(metric, Histogram):
            return None
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge over every label set (0 when absent)."""
        return sum(
            metric.value
            for (metric_name, _), metric in self._metrics.items()
            if metric_name == name and not isinstance(metric, Histogram)
        )

    # ---- snapshot / merge (cross-process shipping) --------------------

    def snapshot(self) -> dict:
        """A plain-data copy of every metric, picklable and mergeable."""
        metrics = []
        for metric in self.collect():
            entry = {
                "kind": metric.kind,
                "name": metric.name,
                "help": metric.help,
                "labels": list(metric.labels),
            }
            if isinstance(metric, Histogram):
                entry.update(
                    bounds=list(metric.bounds),
                    bucket_counts=list(metric.bucket_counts),
                    overflow=metric.overflow,
                    sum=metric.sum,
                    count=metric.count,
                )
            else:
                entry["value"] = metric.value
            metrics.append(entry)
        return {"metrics": metrics}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the snapshot's value
        (last writer wins).
        """
        for entry in snapshot.get("metrics", ()):
            labels = dict(tuple(pair) for pair in entry.get("labels", ()))
            kind = entry.get("kind")
            if kind == "counter":
                self.counter(entry["name"], entry.get("help", ""), **labels).inc(
                    entry.get("value", 0.0)
                )
            elif kind == "gauge":
                self.gauge(entry["name"], entry.get("help", ""), **labels).set(
                    entry.get("value", 0.0)
                )
            elif kind == "histogram":
                histogram = self.histogram(
                    entry["name"],
                    entry.get("help", ""),
                    bounds=tuple(entry.get("bounds", DEFAULT_TIME_BUCKETS)),
                    **labels,
                )
                counts = entry.get("bucket_counts", ())
                if len(counts) == len(histogram.bucket_counts):
                    for index, count in enumerate(counts):
                        histogram.bucket_counts[index] += count
                    histogram.overflow += entry.get("overflow", 0)
                    histogram.sum += entry.get("sum", 0.0)
                    histogram.count += entry.get("count", 0)


class _NullMetric:
    """Shared do-nothing metric handed out by the null registry."""

    __slots__ = ()
    name = ""
    help = ""
    labels: LabelItems = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricRegistry):
    """The default, disabled registry: everything it returns is a no-op.

    Callers on hot paths should additionally gate on :attr:`enabled`
    (see the module docstring); everything else can call straight
    through and pay one no-op method call per aggregate update.
    """

    enabled = False

    def counter(self, name: str, help: str = "", **labels: str):
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", **labels: str):
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", bounds=None, **labels: str):
        return _NULL_METRIC


_NULL_REGISTRY = NullRegistry()
_active: MetricRegistry = _NULL_REGISTRY


def registry() -> MetricRegistry:
    """The process-wide active registry (a no-op one by default)."""
    return _active


def set_registry(new_registry: MetricRegistry) -> MetricRegistry:
    """Install *new_registry* as the active one; returns the previous."""
    global _active
    previous = _active
    _active = new_registry
    return previous


def enable() -> MetricRegistry:
    """Install a real registry (idempotent); returns the active one."""
    if not _active.enabled:
        set_registry(MetricRegistry())
    return _active


def disable() -> None:
    """Restore the shared no-op registry (drops collected metrics)."""
    set_registry(_NULL_REGISTRY)


def telemetry_enabled() -> bool:
    """Whether a real registry is currently active."""
    return _active.enabled
