"""Persistent analysis engine: hot sessions, request scheduling, serving.

The library's long-lived service layer (see ``docs/engine.md``):

* :class:`CircuitSession` — one circuit's eps-independent state (weights,
  compiled plans, closed-form models), kept hot;
* :class:`AnalysisEngine` — an LRU registry of sessions plus a request
  scheduler with coalescing, cross-circuit tensor batching, and
  cooperative deadlines that fall from the correlated plan to the plain
  one when the correlated plan is not compiled yet;
* :class:`AnalysisRequest` / :class:`AnalysisResponse` — the declarative
  request objects and result envelopes shared by ``engine.submit``,
  ``repro serve`` and ``repro batch``;
* :func:`analyze` / :func:`sweep` — the two-line façade over a default
  engine, re-exported as ``repro.analyze`` / ``repro.sweep``.
"""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".core": ["AnalysisEngine"],
    ".requests": ["AnalysisRequest", "AnalysisResponse"],
    ".session": ["CircuitSession", "SessionConfig"],
    ".resolve": ["resolve_circuit", "resolve_analysis_circuit"],
    ".stats": ["EngineStats"],
    ".facade": ["analyze", "sweep", "default_engine", "set_default_engine"],
    ".serve": ["handle_line", "run_batch", "serve_stream", "serve_tcp"],
})
