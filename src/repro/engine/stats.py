"""Rolling engine statistics: latency percentiles and cache rates.

:class:`EngineStats` is the always-on aggregation layer behind
``AnalysisEngine.stats()`` and the ``metrics`` serve op.  Unlike
``repro.obs.metrics`` (opt-in, process-global), it is owned by one engine
instance and fed a cheap ``record()`` call per response — a deque append
and a few dict increments — so it stays within the warm-path overhead
budget guarded by ``benchmarks/test_obs_overhead.py``.

Latencies are kept in fixed-size ring buffers per op; percentiles are
computed on *read* by folding the ring through an
:class:`repro.obs.metrics.Histogram` and calling
:meth:`~repro.obs.metrics.Histogram.quantile`, so the record path never
sorts.  Cache hit-rate windows follow the same rolling-window
discipline: ``stats`` answers reflect recent traffic, not lifetime
averages.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional

from ..obs.metrics import Histogram

__all__ = ["EngineStats", "LATENCY_BUCKETS", "DEFAULT_WINDOW"]

#: Histogram bounds tuned for request latencies (seconds): 100 µs .. 10 s.
LATENCY_BUCKETS = (1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
                   5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Ring-buffer depth for latency and cache-rate windows.
DEFAULT_WINDOW = 512

#: Cache-probe outcomes that count as a hit in the rolling hit-rate.
_HIT_STATES = frozenset(("hit", "warm"))
#: Probe outcomes excluded from the rate (neither hit nor miss).
_NEUTRAL_STATES = frozenset(("transient", "unknown"))

QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class EngineStats:
    """Rolling SLO statistics for one :class:`AnalysisEngine`."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.window = int(window)
        self.started_at = time.time()
        self._start = time.perf_counter()
        self._lock = threading.Lock()
        self._latencies: Dict[str, Deque[float]] = {}
        self._op_counts: Dict[str, int] = {}
        self._op_errors: Dict[str, int] = {}
        self._op_framed: Dict[str, int] = {}
        self._cache_windows: Dict[str, Deque[int]] = {}

    # -- record path (hot; keep allocation-light) -----------------------
    def record(self, op: str, elapsed_s: float, *, ok: bool = True,
               cache: Optional[Dict[str, str]] = None,
               frames: Optional[int] = None) -> None:
        """Fold one finished request into the rolling windows.

        ``frames`` marks a sequential (unrolled) request; the per-op
        ``framed`` counter surfaces in :meth:`ops_summary` only once a
        framed request has been seen, so combinational-only traffic keeps
        its historical summary shape.
        """
        with self._lock:
            ring = self._latencies.get(op)
            if ring is None:
                ring = deque(maxlen=self.window)
                self._latencies[op] = ring
            ring.append(float(elapsed_s))
            self._op_counts[op] = self._op_counts.get(op, 0) + 1
            if not ok:
                self._op_errors[op] = self._op_errors.get(op, 0) + 1
            if frames is not None:
                self._op_framed[op] = self._op_framed.get(op, 0) + 1
            if cache:
                for tier, state in cache.items():
                    if state in _NEUTRAL_STATES:
                        continue
                    window = self._cache_windows.get(tier)
                    if window is None:
                        window = deque(maxlen=self.window)
                        self._cache_windows[tier] = window
                    window.append(1 if state in _HIT_STATES else 0)

    # -- read path ------------------------------------------------------
    def uptime_s(self) -> float:
        return time.perf_counter() - self._start

    def percentiles(self, op: str) -> Dict[str, float]:
        """p50/p95/p99 (seconds) over the op's rolling latency window."""
        with self._lock:
            samples = list(self._latencies.get(op, ()))
        hist = Histogram(op, {}, buckets=LATENCY_BUCKETS)
        for value in samples:
            hist.observe(value)
        return {name: hist.quantile(q) for name, q in QUANTILES}

    def ops_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-op rolling summary: counts, errors, mean + percentiles."""
        with self._lock:
            ops = {op: (list(ring), self._op_counts.get(op, 0),
                        self._op_errors.get(op, 0),
                        self._op_framed.get(op, 0))
                   for op, ring in self._latencies.items()}
        summary: Dict[str, Dict[str, Any]] = {}
        for op, (samples, count, errors, framed) in sorted(ops.items()):
            hist = Histogram(op, {}, buckets=LATENCY_BUCKETS)
            for value in samples:
                hist.observe(value)
            entry: Dict[str, Any] = {
                "count": count,
                "errors": errors,
                "window": len(samples),
                "mean_ms": hist.mean() * 1e3,
            }
            if framed:
                entry["framed"] = framed
            for name, q in QUANTILES:
                entry[f"{name}_ms"] = hist.quantile(q) * 1e3
            summary[op] = entry
        return summary

    def cache_rates(self) -> Dict[str, Dict[str, Any]]:
        """Rolling hit-rate per cache tier (session / weights / plan)."""
        with self._lock:
            tiers = {tier: list(window)
                     for tier, window in self._cache_windows.items()}
        return {tier: {"window": len(window),
                       "hit_rate": (sum(window) / len(window)
                                    if window else None)}
                for tier, window in sorted(tiers.items())}

    def snapshot(self) -> Dict[str, Any]:
        """Everything, JSON-ready (embedded in ``engine.stats()``)."""
        return {
            "window": self.window,
            "ops": self.ops_summary(),
            "cache": self.cache_rates(),
        }

    def to_prometheus(self, prefix: str = "repro_engine") -> str:
        """Prometheus text exposition of the rolling stats.

        Latency quantiles render as a ``summary`` metric with
        ``quantile`` labels (the Prometheus idiom for pre-aggregated
        percentiles); note ``_sum``/``_count`` cover only the rolling
        window, matching the quantiles' horizon.
        """
        lines = [
            f"# HELP {prefix}_uptime_seconds Engine uptime.",
            f"# TYPE {prefix}_uptime_seconds gauge",
            f"{prefix}_uptime_seconds {self.uptime_s():.6f}",
        ]
        ops = self.ops_summary()
        if ops:
            lines.append(f"# HELP {prefix}_requests_total "
                         "Requests served, by op.")
            lines.append(f"# TYPE {prefix}_requests_total counter")
            for op, entry in ops.items():
                lines.append(
                    f'{prefix}_requests_total{{op="{op}"}} {entry["count"]}')
            lines.append(f"# HELP {prefix}_errors_total "
                         "Failed requests, by op.")
            lines.append(f"# TYPE {prefix}_errors_total counter")
            for op, entry in ops.items():
                lines.append(
                    f'{prefix}_errors_total{{op="{op}"}} {entry["errors"]}')
            name = f"{prefix}_request_latency_seconds"
            lines.append(f"# HELP {name} Rolling request latency, by op.")
            lines.append(f"# TYPE {name} summary")
            for op, entry in ops.items():
                for qname, q in QUANTILES:
                    value = entry[f"{qname}_ms"] / 1e3
                    lines.append(
                        f'{name}{{op="{op}",quantile="{q}"}} {value:.6f}')
                total = entry["mean_ms"] / 1e3 * entry["window"]
                lines.append(f'{name}_sum{{op="{op}"}} {total:.6f}')
                lines.append(f'{name}_count{{op="{op}"}} {entry["window"]}')
        cache = self.cache_rates()
        if cache:
            name = f"{prefix}_cache_hit_ratio"
            lines.append(f"# HELP {name} Rolling cache hit rate, by tier.")
            lines.append(f"# TYPE {name} gauge")
            for tier, entry in cache.items():
                rate = entry["hit_rate"]
                if rate is not None:
                    lines.append(f'{name}{{tier="{tier}"}} {rate:.6f}')
        return "\n".join(lines) + "\n"
