"""Persistent analysis engine: hot sessions, request scheduling, serving.

The library's long-lived service layer (see ``docs/engine.md``):

* :class:`CircuitSession` — one circuit's eps-independent state (weights,
  compiled plans, closed-form models), kept hot;
* :class:`AnalysisEngine` — an LRU registry of sessions plus a request
  scheduler with coalescing, cross-circuit tensor batching, and a
  cooperative compiled → scalar → closed-form timeout ladder;
* :class:`AnalysisRequest` / :class:`AnalysisResponse` — the declarative
  request objects and result envelopes shared by ``engine.submit``,
  ``repro serve`` and ``repro batch``;
* :func:`analyze` / :func:`sweep` — the two-line façade over a default
  engine, re-exported as ``repro.analyze`` / ``repro.sweep``.
"""

from .core import AnalysisEngine
from .facade import analyze, default_engine, set_default_engine, sweep
from .requests import AnalysisRequest, AnalysisResponse
from .serve import (
    handle_line,
    run_batch,
    serve_stream,
    serve_tcp,
)
from .session import (
    CircuitSession,
    SessionConfig,
    resolve_analysis_circuit,
    resolve_circuit,
)
from .stats import EngineStats

__all__ = [
    "AnalysisEngine", "AnalysisRequest", "AnalysisResponse",
    "CircuitSession", "SessionConfig", "resolve_circuit",
    "resolve_analysis_circuit", "EngineStats",
    "analyze", "sweep", "default_engine", "set_default_engine",
    "handle_line", "run_batch", "serve_stream", "serve_tcp",
]
