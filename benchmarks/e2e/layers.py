"""Per-layer attribution of traced runs.

Every traced child process (the CLI replica, the batch worker, ``repro
serve --trace-out``) writes a Chrome trace.  This module turns those
spans into self times — a span's duration minus the part its child spans
cover — and sums the self times into the layers the metrics are named
after.  Span names are the program's own (the ones ``repro profile``
prints) plus the benchmark's ``bench.<layer>`` spans around public calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Layers a span's self time can be charged to, in pipeline order.
SPAN_LAYERS = ("io.load", "probability.weights", "reliability.plan_compile",
               "reliability.kernel", "reliability.result", "engine.payload",
               "incremental.edit", "engine.scheduler")

#: (span-name prefix, layer); the first matching prefix wins and spans
#: matching none are engine glue.
_RULES = (
    ("bench.load", "io.load"),
    ("cli.load_circuit", "io.load"),
    ("engine.session.create", "io.load"),
    ("engine.edit_session.create", "io.load"),
    ("bench.weights", "probability.weights"),
    ("single_pass.weights", "probability.weights"),
    ("engine.session.weights", "probability.weights"),
    ("engine.session.workspace", "probability.weights"),
    ("incremental.init", "probability.weights"),
    ("weights", "probability.weights"),
    ("lazy_weights.", "probability.weights"),
    ("conewt_cache.", "probability.weights"),
    ("bench.plan", "reliability.plan_compile"),
    ("compiled_pass.compile", "reliability.plan_compile"),
    ("compiled_pass.patch", "reliability.plan_compile"),
    ("corrplan_cache.", "reliability.plan_compile"),
    ("tensor_pass.merge", "reliability.plan_compile"),
    ("bench.kernel", "reliability.kernel"),
    ("compiled_pass.run_sweep", "reliability.kernel"),
    ("single_pass.", "reliability.kernel"),
    ("tensor_pass", "reliability.kernel"),
    ("engine.tensor_batch", "reliability.kernel"),
    ("bench.result", "reliability.result"),
    ("bench.payload", "engine.payload"),
    ("incremental.", "incremental.edit"),
)

#: Spans that wrap one weight computation.  When such a span's weights
#: end up sampled, the BDD attempt before it was wasted: its node build
#: (the entry span's self time; the program runs it outside any span of
#: its own) plus the ``weights.bdd`` pass that hit the node limit.
_WEIGHT_ENTRIES = ("bench.weights", "engine.session.weights",
                   "single_pass.weights")


#: Spans that cover a whole process lifetime, mostly idle waiting for
#: requests (``repro serve`` wraps its event loop in ``cli.serve``).
_IDLE = ("cli.serve",)


def layer_of(name: str) -> str:
    for prefix, layer in _RULES:
        if name.startswith(prefix):
            return layer
    return "engine.scheduler"


@dataclass
class Span:
    name: str
    start: float
    duration: float
    pid: int
    tid: int
    self_time: float = 0.0
    top_level: bool = False

    @property
    def end(self) -> float:
        return self.start + self.duration


def read_trace(path: Path) -> List[Span]:
    """Spans of one Chrome trace file, with self times filled in."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    spans = [Span(e["name"], e["ts"] / 1e6, e["dur"] / 1e6, e.get("pid", 0),
                  e.get("tid", 0)) for e in events
             if e.get("ph") == "X" and e["name"] not in _IDLE]
    return with_self_times(spans)


def with_self_times(spans: List[Span]) -> List[Span]:
    """Fill ``self_time`` and ``top_level``; spans nest per thread."""
    ordered = sorted(spans, key=lambda s: (s.pid, s.tid, s.start,
                                           -s.duration))
    stack: List[Span] = []
    for span in ordered:
        span.self_time = span.duration
        while stack and (stack[-1].pid, stack[-1].tid) != (span.pid,
                                                           span.tid):
            stack.pop()
        while stack and stack[-1].end <= span.start:
            stack.pop()
        if stack:
            stack[-1].self_time -= span.duration
        span.top_level = not stack
        stack.append(span)
    return ordered


def split_after(spans: Sequence[Span], marker: str, count: int) -> float:
    """End time of the ``count``-th top-level ``marker`` span.

    Set-up requests run one at a time, each as one top-level span, so
    this is where a child's set-up phase ends.
    """
    marks = sorted((s for s in spans if s.top_level and s.name == marker),
                   key=lambda s: s.start)
    if len(marks) < count:
        raise ValueError(f"trace has {len(marks)} top-level {marker!r} "
                         f"spans, expected at least {count}")
    return marks[count - 1].end


def phase(spans: Iterable[Span], after: Optional[float] = None,
          before: Optional[float] = None) -> List[Span]:
    return [s for s in spans
            if (after is None or s.start >= after)
            and (before is None or s.start < before)]


def by_layer(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per layer (every layer present, maybe 0)."""
    totals = dict.fromkeys(SPAN_LAYERS, 0.0)
    for span in spans:
        totals[layer_of(span.name)] += span.self_time
    return totals


def bdd_wasted(spans: Sequence[Span]) -> float:
    """Seconds spent on BDD attempts whose weights ended up sampled."""
    def inside(outer: Span, name: str) -> List[Span]:
        return [s for s in spans if s.name == name and s.pid == outer.pid
                and s.tid == outer.tid and outer.start <= s.start < outer.end]

    return sum((entry.self_time
                + sum(s.duration for s in inside(entry, "weights.bdd"))
                for entry in spans if entry.name in _WEIGHT_ENTRIES
                and inside(entry, "weights.sampled")), 0.0)


def self_table(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per span name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.self_time
    return totals


def chrome_events(spans: Iterable[Span], pid: int, label: str) -> List[dict]:
    """Spans re-labelled onto one process track of a merged trace."""
    events = [{"name": "process_name", "ph": "M", "pid": pid,
               "args": {"name": label}}]
    events += [{"name": s.name, "ph": "X", "ts": s.start * 1e6,
                "dur": s.duration * 1e6, "pid": pid, "tid": s.tid,
                "cat": s.name.split(".", 1)[0]} for s in spans]
    return events
