"""Observability: tracing spans, metrics, structured logs, run reports.

The measurement layer for every analysis engine (see
docs/observability.md).  Four small pieces:

* :mod:`repro.obs.trace` — hierarchical spans with monotonic timing,
  exportable as a flat table or Chrome ``chrome://tracing`` JSON;
* :mod:`repro.obs.metrics` — named counters / gauges / histograms with
  labels, ``snapshot()`` / ``reset()``;
* :mod:`repro.obs.logging` — structured stdlib logging, configured once;
* :mod:`repro.obs.runlog` — JSON-lines run reports combining all of the
  above with engine results.

Everything is **disabled by default and zero-cost when disabled**: the
span/counter entry points check a module flag and return immediately, so
instrumented hot paths run at un-instrumented speed (guarded by
``benchmarks/test_obs_overhead.py``).  Enable around a region::

    from repro import obs

    obs.enable()                  # tracing + metrics
    result = analyzer.run(0.05)
    print(obs.get_tracer().as_table())
    print(obs.metrics.snapshot())
    obs.disable()

or use the CLI plumbing: every subcommand accepts ``--metrics-out``,
``--trace-out``, and ``-v``.
"""

from __future__ import annotations

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".trace": ["trace_span", "Span", "Tracer", "get_tracer"],
    ".metrics": ["MetricsRegistry", "get_registry"],
    ".logging": ["get_logger", "configure_logging"],
    ".runlog": ["RunRecord", "build_record", "append_record", "read_runlog"],
}, submodules=["metrics", "runlog"])
__all__ += ["enable", "disable", "is_enabled", "reset"]


def enable(tracing: bool = True, metrics_: bool = True) -> None:
    """Turn on span and/or metric collection process-wide."""
    from . import metrics, trace
    if tracing:
        trace.set_enabled(True)
    if metrics_:
        metrics.set_enabled(True)


def disable() -> None:
    """Turn off both tracing and metrics."""
    from . import metrics, trace
    trace.set_enabled(False)
    metrics.set_enabled(False)


def is_enabled() -> bool:
    """True if either tracing or metrics collection is on."""
    from . import metrics, trace
    return trace.is_enabled() or metrics.is_enabled()


def reset() -> None:
    """Clear collected spans and metric series (flags unchanged)."""
    from . import metrics, trace
    trace.reset()
    metrics.reset()
