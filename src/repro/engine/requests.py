"""Declarative analysis requests and their result envelopes.

One :class:`AnalysisRequest` describes one unit of work — which circuit,
which operation (``analyze`` / ``sweep`` / ``curve`` / ``closed-form`` /
``mc`` / ``report``), which eps point(s), which method and options — in a
form that serializes to a JSON line, so the same object drives
``engine.submit(...)``, ``repro serve``, and ``repro batch``.

One :class:`AnalysisResponse` wraps one result: the payload dict (built by
the same builders the CLI's ``--json`` output uses, so serve envelopes
byte-match one-shot outputs), plus the execution record — method actually
used, the fallback ladder steps taken, timeout status, and elapsed time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..circuit import Circuit
from ..spec import EpsilonSpec, parse_eps_list, parse_epsilon

#: Operations the engine schedules.  ``edit`` and ``reanalyze`` act on a
#: named mutable session (see docs/engine.md, "Incremental edit sessions").
OPS = ("analyze", "sweep", "curve", "closed-form", "mc", "report",
       "edit", "reanalyze")

#: Analysis methods the ``analyze``/``sweep`` ops dispatch between.
METHODS = ("single-pass", "closed-form", "mc", "consolidated", "exact")


def normalize_eps_points(eps: Any) -> List[EpsilonSpec]:
    """Coerce a request's ``eps`` field into a list of canonical specs.

    Accepts one spec (number / numeric string / per-gate mapping), a list
    of specs, or the CLI's comma-separated string (``"0.01,0.05"``).
    """
    if isinstance(eps, str) and "," in eps:
        return list(parse_eps_list(eps))
    if isinstance(eps, (list, tuple)):
        return [parse_epsilon(e) for e in eps]
    return [parse_epsilon(eps)]


@dataclass
class AnalysisRequest:
    """One declarative unit of analysis work."""

    circuit: Union[str, Circuit, None] = None
    op: str = "analyze"
    eps: Any = 0.05
    eps10: Any = None
    method: str = "single-pass"
    correlation: bool = True
    output: Optional[str] = None
    timeout_s: Optional[float] = None
    id: Optional[Any] = None
    #: Time-frame count for sequential circuits (None = combinational).
    #: Folded into ``options`` so session keying, coalescing, and cache
    #: probes all see it without special cases.
    frames: Optional[int] = None
    #: Optional primary-output subset: restrict the analysis to the union
    #: cone of these outputs (docs/scaling.md).  Folded into ``options``
    #: like ``frames`` so sessions and coalescing key on it.
    outputs: Optional[List[str]] = None
    #: Named mutable session this request targets (``edit``/``reanalyze``,
    #: or any analysis op after an ``edit``).  Named sessions live outside
    #: the LRU registry and keep their incremental workspace warm.
    session: Optional[str] = None
    #: Edit objects for ``op="edit"`` (see repro.incremental.parse_edit).
    edits: Optional[List[Dict[str, Any]]] = None
    #: Session options (``weight_method``/``weights``, ``n_patterns``,
    #: ``seed``, ``level_gap``, ``compiled``, ``weights_cache_dir``, ...)
    #: plus per-call extras like ``mc_patterns``.
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(
                f"unknown op {self.op!r}: expected one of {', '.join(OPS)}")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}: expected one of "
                f"{', '.join(METHODS)}")
        if self.op in ("edit", "reanalyze") and self.session is None:
            raise ValueError(f"op {self.op!r} requires a 'session' field")
        if self.circuit is None and self.session is None:
            raise ValueError("request needs a 'circuit' field")
        if self.frames is not None:
            self.options.setdefault("frames", self.frames)
        if self.outputs is not None:
            self.options.setdefault("outputs", self.outputs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisRequest":
        """Parse one request object (a ``repro serve`` / ``batch`` line)."""
        if not isinstance(data, dict):
            raise ValueError(f"request must be a JSON object, got "
                             f"{type(data).__name__}")
        known = {"circuit", "op", "eps", "eps10", "method", "correlation",
                 "output", "timeout_s", "id", "options", "session", "edits",
                 "frames", "outputs"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown request field(s): {', '.join(sorted(unknown))}")
        if "circuit" not in data and "session" not in data:
            raise ValueError("request needs a 'circuit' field")
        op = data.get("op", "analyze")
        # ``reanalyze`` without an explicit eps means "the session's
        # current eps state" — keep the sentinel for the engine.
        default_eps = None if op == "reanalyze" else 0.05
        return cls(
            circuit=data.get("circuit"),
            op=op,
            eps=data.get("eps", default_eps),
            eps10=data.get("eps10"),
            method=data.get("method", "single-pass"),
            correlation=bool(data.get("correlation", True)),
            output=data.get("output"),
            timeout_s=data.get("timeout_s"),
            id=data.get("id"),
            frames=data.get("frames"),
            outputs=data.get("outputs"),
            session=data.get("session"),
            edits=data.get("edits"),
            options=dict(data.get("options") or {}),
        )

    def eps_points(self) -> List[EpsilonSpec]:
        return normalize_eps_points(self.eps)

    def eps10_points(self) -> Optional[List[EpsilonSpec]]:
        if self.eps10 is None:
            return None
        return normalize_eps_points(self.eps10)

    def circuit_label(self) -> str:
        if self.circuit is None:
            return f"session:{self.session}"
        return (self.circuit.name if isinstance(self.circuit, Circuit)
                else str(self.circuit))


@dataclass
class AnalysisResponse:
    """One request's outcome: payload plus execution record."""

    ok: bool
    op: str
    circuit: str
    id: Optional[Any] = None
    #: Method that actually produced the payload (may differ from the
    #: requested one after a fallback).
    method: Optional[str] = None
    #: Ladder steps taken, e.g. ``[{"from": "single-pass-compiled",
    #: "to": "closed-form", "reason": "timeout"}]``.
    fallbacks: List[Dict[str, Any]] = field(default_factory=list)
    timed_out: bool = False
    elapsed_s: float = 0.0
    #: Whether this request was answered from a coalesced kernel call
    #: covering several requests (0 = ran alone).
    coalesced: int = 0
    #: Time-frame count of the session that answered (sequential
    #: circuits only; None — and absent from the wire form — for
    #: combinational traffic, keeping those envelopes byte-identical).
    frames: Optional[int] = None
    #: Output subset the answering session was restricted to (None — and
    #: absent from the wire form — for full-circuit traffic).
    outputs: Optional[List[str]] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    obs: Optional[Dict[str, Any]] = None
    #: Per-request telemetry block (always populated by the engine):
    #: ``request_id``, ``queue_wait_ms``, ``coalesced``,
    #: ``cache`` (session/weights/plan warmth), ``ladder``, ``kernel_ms``,
    #: ``total_ms``.  See docs/observability.md, "Telemetry envelopes".
    telemetry: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.id,
            "ok": self.ok,
            "op": self.op,
            "circuit": self.circuit,
            "method": self.method,
            "fallbacks": self.fallbacks,
            "timed_out": self.timed_out,
            "elapsed_s": self.elapsed_s,
            "coalesced": self.coalesced,
        }
        if self.frames is not None:
            data["frames"] = self.frames
        if self.outputs is not None:
            data["outputs"] = list(self.outputs)
        if self.ok:
            data["result"] = self.result
        else:
            data["error"] = self.error
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        if self.obs is not None:
            data["obs"] = self.obs
        return data


# ----------------------------------------------------------------------
# Payload builders — shared with the CLI so `repro serve` envelopes
# byte-match one-shot `--json` outputs for the same work.
# ----------------------------------------------------------------------

def analyze_payload(circuit_name: str,
                    eps_points: Sequence[EpsilonSpec],
                    results: Sequence[Any]) -> Dict[str, Any]:
    """The ``repro analyze --json`` document (sans timing).  ``results``
    are result objects or their ``to_dict()`` views, which a caller
    sharing one result among several points builds once."""
    points = [{"eps": eps, **(r if isinstance(r, dict) else r.to_dict())}
              for eps, r in zip(eps_points, results)]
    return {"circuit": circuit_name, "command": "analyze", "points": points}


def curve_payload(circuit_name: str, output: str,
                  eps_points: Sequence[float],
                  deltas: Sequence[float]) -> Dict[str, Any]:
    """A delta(eps) curve document for one output."""
    return {
        "circuit": circuit_name,
        "command": "curve",
        "output": output,
        "points": [{"eps": float(e), "delta": float(d)}
                   for e, d in zip(eps_points, deltas)],
    }


def result_payload(circuit_name: str, command: str,
                   result: Any) -> Dict[str, Any]:
    """Wrap any ``ResultProtocol`` object as a command document."""
    return {"circuit": circuit_name, "command": command, **result.to_dict()}
