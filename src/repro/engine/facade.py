"""Top-level two-line API: ``repro.analyze`` / ``repro.sweep``.

Both route through one process-wide default :class:`AnalysisEngine`, so
repeat calls on the same circuit hit a hot session — the quickstart gets
engine-grade performance without ever naming the engine::

    import repro

    result = repro.analyze("c17", 0.05)        # cold: builds the session
    result = repro.analyze("c17", 0.01)        # warm: kernel time only
    sweep = repro.sweep("c17", [0.001, 0.01, 0.1])

Every return value implements the shared
:class:`~repro.reliability.protocol.ResultProtocol`
(``.delta(output=None)``, ``.per_output``, ``.to_dict()``).
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

from ..spec import EpsilonSpec
from .core import AnalysisEngine
from .resolve import CircuitRef

_DEFAULT_ENGINE: Optional[AnalysisEngine] = None
_LOCK = threading.Lock()


def default_engine() -> AnalysisEngine:
    """The process-wide engine behind ``repro.analyze`` / ``repro.sweep``."""
    global _DEFAULT_ENGINE
    with _LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = AnalysisEngine()
        return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[AnalysisEngine]) -> None:
    """Swap (or with None, reset) the process-wide default engine."""
    global _DEFAULT_ENGINE
    with _LOCK:
        _DEFAULT_ENGINE = engine


def analyze(circuit_or_name: CircuitRef, eps: EpsilonSpec, *,
            method: str = "single-pass", correlation: bool = True,
            eps10: Optional[EpsilonSpec] = None,
            output: Optional[str] = None,
            timeout_s: Optional[float] = None,
            frames: Optional[int] = None,
            outputs: Optional[Sequence[str]] = None,
            **opts: Any):
    """Reliability of one circuit at one failure-probability vector.

    Parameters
    ----------
    circuit_or_name:
        A :class:`~repro.circuit.Circuit`, a
        :class:`~repro.circuit.SequentialCircuit`, a benchmark name, or a
        netlist path (``.bench`` / ``.blif``).
    eps:
        Scalar, per-gate mapping (``"default"`` key supported), or
        numeric string — see :mod:`repro.spec`.
    method:
        ``"single-pass"`` (default), ``"closed-form"``, ``"mc"``,
        ``"consolidated"``, or ``"exact"``.
    correlation:
        Apply the Sec. 4.1 correlation correction (single-pass only).
    frames:
        Time-frame count for sequential circuits: the netlist is unrolled
        into ``frames`` frames before analysis and the result carries a
        ``per_frame`` view.  Default None analyzes combinationally — a
        sequential circuit without ``frames`` raises :class:`ValueError`.
    outputs:
        Optional subset of primary outputs: the analysis restricts to
        the union cone and only that cone is weighted/lowered — the
        large-netlist path (docs/scaling.md).  Results for the selected
        outputs are bit-identical to a full run; single-pass only.
    opts:
        Session options forwarded to the engine — ``weight_method`` /
        ``weights``, ``n_patterns``, ``seed``, ``input_probs``,
        ``max_correlation_pairs``, ``max_correlation_level_gap`` /
        ``level_gap``, ``compiled``, ``weights_cache_dir``,
        ``input_errors``, ``mc_patterns``.

    Returns the method's result object (e.g. ``SinglePassResult``); all
    of them share the ``ResultProtocol`` surface.
    """
    if frames is not None:
        opts["frames"] = frames
    if outputs is not None:
        opts["outputs"] = list(outputs)
    return default_engine().analyze(
        circuit_or_name, eps, method=method, correlation=correlation,
        eps10=eps10, output=output, timeout_s=timeout_s, **opts)


def sweep(circuit_or_name: CircuitRef,
          eps_values: Sequence[EpsilonSpec], *,
          method: str = "single-pass", correlation: bool = True,
          eps10_values: Optional[Sequence[EpsilonSpec]] = None,
          output: Optional[str] = None,
          frames: Optional[int] = None,
          outputs: Optional[Sequence[str]] = None,
          **opts: Any):
    """Reliability over many eps vectors in one engine call.

    ``method="single-pass"`` returns the dense
    :class:`~repro.reliability.compiled_pass.SweepResult`; the other
    methods (``"closed-form"``, ``"consolidated"``, ``"mc"``) return
    ``{eps: delta}`` curves.

    ``frames`` unrolls a sequential circuit into that many time frames
    before sweeping (see :func:`analyze`); the default None is the
    combinational path, and a sequential circuit without ``frames``
    raises :class:`ValueError`.
    """
    if frames is not None:
        opts["frames"] = frames
    if outputs is not None:
        opts["outputs"] = list(outputs)
    return default_engine().sweep(
        circuit_or_name, eps_values, method=method, correlation=correlation,
        eps10_values=eps10_values, output=output, **opts)
