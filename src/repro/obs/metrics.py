"""Process-local metrics registry: counters, gauges, and histograms.

Engines report *what happened* through named instruments —
``single_pass.gates_processed``, ``correlation.pairs_tracked``,
``mc.samples``, ``bdd.nodes_allocated``, ``sat.calls`` — optionally
labeled with dimensions (``counter("mc.samples", circuit="b9")``).  A
snapshot of the registry is embedded in every run report (see
``repro.obs.runlog``) so a run's behaviour is reproducible as data, not
just as a log line.

Like tracing, the registry is **off by default and zero-cost when
disabled**: the module-level convenience functions (:func:`inc`,
:func:`set_gauge`, :func:`observe`) check one flag and return.  Hot loops
should additionally batch — accumulate plain ints locally and report a
total per phase — rather than call per item; see docs/observability.md
for the conventions.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "inc",
    "set_gauge",
    "observe",
    "snapshot",
    "to_prometheus",
    "reset",
    "set_enabled",
    "is_enabled",
]

_ENABLED = False

#: A metric series key: (name, sorted label items).
SeriesKey = Tuple[str, Tuple[Tuple[str, Any], ...]]

_DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
                    1.0, 10.0, 100.0, 1000.0)


def _series_key(name: str, labels: Mapping[str, Any]) -> SeriesKey:
    return (name, tuple(sorted(labels.items())))


def _prom_name(prefix: str, name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _prom_value(value: Union[int, float]) -> str:
    """Render a sample value (integers stay integral for readability)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _prom_labels(labels: Mapping[str, Any]) -> str:
    """Render a label set as ``{k="v",...}`` with value escaping."""
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        text = str(value).replace("\\", r"\\").replace('"', r'\"')
        text = text.replace("\n", r"\n")
        parts.append(f'{key}="{text}"')
    return "{" + ",".join(parts) + "}"


class Counter:
    """Monotonically increasing count (events, items, calls)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, Any]):
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "name": self.name,
                "labels": self.labels, "value": self.value}


class Gauge:
    """Last-observed value (running stderr, cache size, node count)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, Any]):
        self.name = name
        self.labels = dict(labels)
        self.value: Optional[float] = None

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def add(self, delta: Union[int, float]) -> None:
        self.value = (self.value or 0) + delta

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "name": self.name,
                "labels": self.labels, "value": self.value}


class Histogram:
    """Bucketed distribution of observations (durations, sizes).

    Buckets are upper-bound-inclusive, cumulative on export (Prometheus
    convention); count/sum/min/max come for free.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts",
                 "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Mapping[str, Any],
                 buckets: Tuple[float, ...] = _DEFAULT_BUCKETS):
        self.name = name
        self.labels = dict(labels)
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        # First bucket whose upper bound is >= value; past-the-end is the
        # overflow slot.
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) by linear interpolation.

        Prometheus-style: the target rank is located in the cumulative
        bucket counts, then interpolated linearly between the bucket's
        lower and upper bounds.  The estimate is clamped to the observed
        ``[min, max]`` range (which also makes single-value and overflow
        cases exact); an empty histogram returns 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        running = 0.0
        prev_bound: Optional[float] = None
        for bound, n in zip(self.buckets, self.bucket_counts):
            if n and running + n >= target:
                lo = (self.min if prev_bound is None
                      else max(prev_bound, self.min))
                hi = min(self.max, bound)
                if hi <= lo:
                    return lo
                frac = (target - running) / n
                return lo + (hi - lo) * frac
            running += n
            prev_bound = bound
        # Target rank lies in the overflow bucket (> last bound).
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        cumulative = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            cumulative.append({"le": bound, "count": running})
        return {"type": "histogram", "name": self.name, "labels": self.labels,
                "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max, "mean": self.mean(),
                "buckets": cumulative}


class MetricsRegistry:
    """Named instrument series, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: Dict[SeriesKey, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, cls, name: str, labels: Mapping[str, Any], **kwargs):
        key = _series_key(name, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = cls(name, labels, **kwargs)
                self._series[key] = series
            elif not isinstance(series, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(series).__name__}, not {cls.__name__}")
            return series

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Tuple[float, ...] = _DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Serializable dump of every series, sorted by (name, labels)."""
        with self._lock:
            series = list(self._series.values())
        return [s.to_dict() for s in sorted(
            series, key=lambda s: (s.name, sorted(s.labels.items())))]

    def value(self, name: str, **labels) -> Any:
        """Current value of one counter/gauge series (KeyError if absent)."""
        with self._lock:
            series = self._series[_series_key(name, labels)]
        return series.value

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Render every series in Prometheus text exposition format.

        Metric names are sanitized (dots become underscores) and prefixed;
        counters gain the conventional ``_total`` suffix, histograms emit
        cumulative ``_bucket{le=...}`` lines plus ``_sum``/``_count``.
        """
        out: List[str] = []
        seen_types: Dict[str, str] = {}
        for entry in self.snapshot():
            kind = entry["type"]
            name = _prom_name(prefix, entry["name"])
            if kind == "counter":
                name += "_total"
            if name not in seen_types:
                seen_types[name] = kind
                out.append(f"# HELP {name} repro metric {entry['name']}")
                out.append(f"# TYPE {name} {kind}")
            labels = _prom_labels(entry.get("labels", {}))
            if kind == "counter":
                out.append(f"{name}{labels} {_prom_value(entry['value'])}")
            elif kind == "gauge":
                value = entry["value"]
                out.append(f"{name}{labels} "
                           f"{_prom_value(0 if value is None else value)}")
            elif kind == "histogram":
                base = dict(entry.get("labels", {}))
                for bucket in entry["buckets"]:
                    lab = _prom_labels({**base, "le": _prom_value(bucket['le'])})
                    out.append(f"{name}_bucket{lab} {bucket['count']}")
                lab = _prom_labels({**base, "le": "+Inf"})
                out.append(f"{name}_bucket{lab} {entry['count']}")
                out.append(f"{name}_sum{labels} {_prom_value(entry['sum'])}")
                out.append(f"{name}_count{labels} {entry['count']}")
        return "\n".join(out) + ("\n" if out else "")

    def reset(self) -> None:
        """Drop every series."""
        with self._lock:
            self._series.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def counter(name: str, **labels) -> Counter:
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return _REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels) -> Histogram:
    return _REGISTRY.histogram(name, **labels)


def inc(name: str, n: Union[int, float] = 1, **labels) -> None:
    """Increment a counter; no-op while metrics are disabled."""
    if not _ENABLED:
        return
    _REGISTRY.counter(name, **labels).inc(n)


def set_gauge(name: str, value: Union[int, float], **labels) -> None:
    """Set a gauge; no-op while metrics are disabled."""
    if not _ENABLED:
        return
    _REGISTRY.gauge(name, **labels).set(value)


def observe(name: str, value: Union[int, float], **labels) -> None:
    """Record a histogram observation; no-op while metrics are disabled."""
    if not _ENABLED:
        return
    _REGISTRY.histogram(name, **labels).observe(value)


def snapshot() -> List[Dict[str, Any]]:
    """Snapshot the global registry (works even while disabled)."""
    return _REGISTRY.snapshot()


def to_prometheus(prefix: str = "repro") -> str:
    """Render the global registry in Prometheus text exposition format."""
    return _REGISTRY.to_prometheus(prefix=prefix)


def reset() -> None:
    """Clear the global registry (keeps the enabled flag)."""
    _REGISTRY.reset()


def set_enabled(on: bool) -> None:
    """Globally enable or disable metric collection."""
    global _ENABLED
    _ENABLED = bool(on)


def is_enabled() -> bool:
    return _ENABLED
