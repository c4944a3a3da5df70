"""Hierarchical span tracing with monotonic-clock timing.

The tracer is the library's answer to "where does the time go?": code
wraps phases in ``with trace_span("single_pass.weights"):`` blocks, spans
nest through a thread-local stack, and the collected spans export as a
flat table (for terminals) or Chrome ``chrome://tracing`` JSON (for the
timeline viewer at ``chrome://tracing`` / https://ui.perfetto.dev).

Design constraints (see docs/observability.md):

* **Zero cost when disabled.**  Tracing is off by default; ``trace_span``
  checks one module-level flag and returns a shared no-op context manager
  without allocating anything.  Hot engine loops stay unaffected.
* **Monotonic clocks only.**  Spans time with ``time.perf_counter()`` —
  wall-clock ``time.time()`` is subject to NTP steps and is never used
  for intervals anywhere in this library.
* **Thread safety.**  The span *stack* is thread-local (nesting is a
  per-thread notion); the finished-span list is guarded by a lock so
  multi-threaded runs merge into one trace keyed by thread id.
* **One process.**  Every span is recorded in the process that runs
  the analysis, so the Chrome export puts them all on one ``pid``
  track (``"pid": 1``), one ``tid`` row per thread.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "SpanHandle",
    "Tracer",
    "get_tracer",
    "trace_span",
    "set_enabled",
    "is_enabled",
    "reset",
]

#: Module-level fast-path flag.  Checked before any span work happens so
#: that instrumentation costs one global load + branch when tracing is off.
_ENABLED = False


@dataclass
class Span:
    """One finished timed region."""

    name: str
    #: Seconds since the tracer's epoch (a perf_counter origin).
    start: float
    #: Span duration in seconds.
    duration: float
    #: Nesting depth at the time the span was opened (0 = top level).
    depth: int
    #: Name of the enclosing span, or None at top level.
    parent: Optional[str]
    thread_id: int
    #: Free-form labels attached at the call site (e.g. eps, gate counts).
    attrs: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`Span` records from ``trace_span`` blocks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: List[Span] = []
        #: perf_counter value all span starts are measured relative to.
        self.epoch = time.perf_counter()

    # -- span stack ----------------------------------------------------
    def _stack(self) -> List["SpanHandle"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def push(self, handle: "SpanHandle") -> None:
        self._stack().append(handle)

    def pop(self, handle: "SpanHandle") -> None:
        stack = self._stack()
        if stack and stack[-1] is handle:
            stack.pop()
        elif handle in stack:  # tolerate out-of-order exits
            stack.remove(handle)

    def current(self) -> Optional["SpanHandle"]:
        stack = self._stack()
        return stack[-1] if stack else None

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- introspection -------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def reset(self) -> None:
        """Drop all finished spans and restart the epoch."""
        with self._lock:
            self._spans.clear()
            self.epoch = time.perf_counter()

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span with the given name, in seconds."""
        return sum(s.duration for s in self.find(name))

    # -- exporters -----------------------------------------------------
    def as_rows(self) -> List[Dict[str, Any]]:
        """Flat table rows (dicts), sorted by start time."""
        rows = []
        for span in sorted(self.spans, key=lambda s: s.start):
            rows.append({
                "name": span.name,
                "start_s": span.start,
                "duration_s": span.duration,
                "depth": span.depth,
                "parent": span.parent,
                "thread": span.thread_id,
                **({"attrs": span.attrs} if span.attrs else {}),
            })
        return rows

    def as_table(self) -> str:
        """Human-readable indented table of spans."""
        lines = [f"{'span':<44s} {'start':>10s} {'duration':>12s}"]
        for span in sorted(self.spans, key=lambda s: (s.thread_id, s.start)):
            label = "  " * span.depth + span.name
            lines.append(f"{label:<44s} {span.start * 1e3:>8.2f}ms "
                         f"{span.duration * 1e3:>10.3f}ms")
        return "\n".join(lines)

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome Trace Event JSON (complete "X" events, microseconds)."""
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread_id,
                "cat": span.name.split(".", 1)[0],
                "args": dict(span.attrs),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Write :meth:`to_chrome_trace` JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)

    def phase_timings(self) -> Dict[str, float]:
        """``{span name: summed duration}`` over all finished spans."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals


class SpanHandle:
    """Context manager for one live span (created by :func:`trace_span`)."""

    __slots__ = ("tracer", "name", "attrs", "depth", "parent", "_t0")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.parent: Optional[str] = None
        self._t0 = 0.0

    def __enter__(self) -> "SpanHandle":
        enclosing = self.tracer.current()
        if enclosing is not None:
            self.depth = enclosing.depth + 1
            self.parent = enclosing.name
        self.tracer.push(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.tracer.pop(self)
        self.tracer.record(Span(
            name=self.name,
            start=self._t0 - self.tracer.epoch,
            duration=t1 - self._t0,
            depth=self.depth,
            parent=self.parent,
            thread_id=threading.get_ident(),
            attrs=self.attrs,
        ))

    def set(self, **attrs) -> None:
        """Attach labels to the span from inside the block."""
        self.attrs.update(attrs)


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def trace_span(name: str, **attrs):
    """Open a timed span; no-op (and allocation-free) when tracing is off.

    Usage::

        with trace_span("single_pass.run", eps=0.05):
            ...
    """
    if not _ENABLED:
        return _NULL_SPAN
    return SpanHandle(_TRACER, name, attrs)


def set_enabled(on: bool) -> None:
    """Globally enable or disable span collection."""
    global _ENABLED
    _ENABLED = bool(on)


def is_enabled() -> bool:
    return _ENABLED


def reset() -> None:
    """Clear collected spans (keeps the enabled flag)."""
    _TRACER.reset()
