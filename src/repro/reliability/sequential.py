"""Multi-cycle soft-error propagation for sequential circuits.

A sequential circuit is analyzed one clock cycle at a time: each frame is
a single-pass run of the combinational core in which the state inputs
carry the error probabilities their flip-flops latched at the end of the
previous frame (frame 0 starts from error-free state).  Iterating the
frame map

    state_{t+1}[q] = node_errors_t[ D(q) ]

either a fixed number of cycles (:meth:`SequentialAnalyzer.frame_results`)
or to its fixed point (:meth:`SequentialAnalyzer.steady_state`) yields the
per-cycle output deltas and the steady-state flip probability of every
flop.

The frame runs reuse **one** compiled plan: :class:`CompiledSinglePass`
applies its ``input_error_rows`` at sweep time, so advancing a frame is a
row swap, not a re-lower.  The correlated kernel bakes input errors at
compile time, so correlation mode runs the scalar reference pass per
frame instead — same recurrence, scalar oracle.

Signal probabilities of the state inputs are held at the value used for
weight computation (0.5 unless overridden via ``input_probs``), the
propagation-probability convention for SER estimation.  Time-frame
unrolling (:func:`repro.circuit.unroll`) instead wires frame ``t`` state
bits to the actual frame ``t-1`` next-state logic, so its signal
probabilities are exact per frame; the two views agree on the error
*recurrence* but may differ in the weighting of state bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..circuit import SequentialCircuit
from ..obs import trace_span
from ..probability.error_propagation import ERROR_FREE, ErrorProbability
from ..spec import EpsilonSpec
from .compiled_pass import CompiledSinglePass
from .protocol import single_output_delta
from .single_pass import SinglePassAnalyzer, SinglePassResult


@dataclass
class SteadyStateResult:
    """Fixed point of the frame recurrence (satisfies ResultProtocol).

    Attributes
    ----------
    per_output:
        Steady-state ``delta_y`` of every primary output.
    state_errors:
        Fixed-point propagated :class:`ErrorProbability` at each state
        input (keyed by flop output name).
    state_flip:
        Unconditional steady-state flip probability of each flop's
        next-state bit, ``(1-p1) p01 + p1 p10`` with ``p1`` the
        error-free probability of its data driver.
    per_frame:
        Per-output delta history, one entry per iterated frame — entry
        ``t`` is the cycle-``t`` output error, so the full accumulation
        trajectory is retained alongside the limit.
    residual:
        Largest absolute change of any state (p01, p10) component in the
        final iteration (``<= tol`` iff ``converged``).
    """

    per_output: Dict[str, float]
    state_errors: Dict[str, ErrorProbability]
    state_flip: Dict[str, float]
    iterations: int
    converged: bool
    tol: float
    residual: float
    per_frame: List[Dict[str, float]]

    def delta(self, output: Optional[str] = None) -> float:
        """Steady-state delta for one output (default: the only output)."""
        return single_output_delta(self.per_output, output)

    def cumulative(self, output: Optional[str] = None) -> float:
        """P[output wrong in at least one iterated cycle] (independence
        across cycles): ``1 - prod_t (1 - delta_t)``."""
        if output is None and len(self.per_output) != 1:
            raise ValueError("output name required for multi-output result")
        key = output or next(iter(self.per_output))
        ok = 1.0
        for frame in self.per_frame:
            ok *= 1.0 - frame[key]
        return 1.0 - ok

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view with steady-state metadata."""
        return {
            "per_output": {out: float(d)
                           for out, d in self.per_output.items()},
            "frames": self.iterations,
            "per_frame": [dict(frame) for frame in self.per_frame],
            "steady_state": {
                "iterations": self.iterations,
                "converged": self.converged,
                "tol": self.tol,
                "residual": self.residual,
                "state_flip": {q: float(p)
                               for q, p in self.state_flip.items()},
            },
        }


class SequentialAnalyzer:
    """Frame-iterated single-pass analysis of a sequential circuit.

    Weights of the combinational core are computed once (state inputs at
    probability 0.5 unless ``input_probs`` overrides them); every frame is
    then one single-pass evaluation with swapped state-input error rows.

    Parameters mirror :class:`SinglePassAnalyzer` where they apply.
    ``use_correlation`` selects the Sec. 4.1 correction per frame — this
    forces the scalar path, since the correlated kernel bakes input
    errors at compile time.  ``input_errors`` seeds the *primary* inputs
    of every frame; state-input errors are owned by the iteration.
    """

    def __init__(self, seq: SequentialCircuit,
                 weight_method: str = "auto",
                 use_correlation: bool = False,
                 input_errors: Optional[Mapping[str, ErrorProbability]] = None,
                 n_patterns: int = 1 << 16,
                 seed: int = 0,
                 max_correlation_pairs: int = 1_000_000,
                 max_correlation_level_gap: Optional[int] = None,
                 input_probs: Optional[Mapping[str, float]] = None,
                 compiled: str = "auto",
                 weights_cache_dir: Optional[str] = None):
        seq.validate()
        self.seq = seq
        self.use_correlation = use_correlation
        base = dict(input_errors or {})
        for q in seq.state_names:
            if q in base:
                raise ValueError(
                    f"input_errors may not seed state input {q!r}: state "
                    f"errors are produced by the frame iteration")
        self._base_errors = base
        probs = dict(input_probs or {})
        for q in seq.state_names:
            probs.setdefault(q, 0.5)
        self._analyzer = SinglePassAnalyzer(
            seq.core,
            weight_method=weight_method,
            use_correlation=use_correlation,
            input_errors=base,
            n_patterns=n_patterns,
            seed=seed,
            max_correlation_pairs=max_correlation_pairs,
            max_correlation_level_gap=max_correlation_level_gap,
            input_probs=probs,
            compiled="off" if use_correlation else compiled,
            weights_cache_dir=weights_cache_dir)

    @property
    def core_analyzer(self) -> SinglePassAnalyzer:
        """The per-frame single-pass engine (weights computed once)."""
        return self._analyzer

    # ------------------------------------------------------------------
    def _set_state(self, state: Mapping[str, ErrorProbability]) -> None:
        """Point the next frame run at the given state-input errors."""
        merged = dict(self._base_errors)
        merged.update(state)
        analyzer = self._analyzer
        analyzer.input_errors = merged
        plan = analyzer.plan
        if isinstance(plan, CompiledSinglePass):
            plan.input_error_rows = [
                (plan.index[name], ep) for name, ep in merged.items()
                if ep.p01 != 0.0 or ep.p10 != 0.0]

    def _next_state(self, res: SinglePassResult
                    ) -> Dict[str, ErrorProbability]:
        return {ff.name: res.node_errors[ff.data] for ff in self.seq.flops}

    # ------------------------------------------------------------------
    def frame_results(self, eps: EpsilonSpec, frames: int,
                      eps10: Optional[EpsilonSpec] = None
                      ) -> List[SinglePassResult]:
        """Run ``frames`` clock cycles; element ``t`` is cycle ``t``'s
        core result (state inputs carrying the cycle ``t-1`` errors)."""
        if frames < 1:
            raise ValueError(f"frames must be >= 1, got {frames}")
        state: Dict[str, ErrorProbability] = {
            q: ERROR_FREE for q in self.seq.state_names}
        results: List[SinglePassResult] = []
        with trace_span("sequential.frames", circuit=self.seq.name,
                        frames=frames):
            for _ in range(frames):
                self._set_state(state)
                res = self._analyzer.run(eps, eps10)
                results.append(res)
                state = self._next_state(res)
        return results

    def frame_deltas(self, eps: EpsilonSpec, frames: int,
                     eps10: Optional[EpsilonSpec] = None
                     ) -> List[Dict[str, float]]:
        """``per_output`` delta map of each cycle, as plain floats."""
        return [{out: float(v) for out, v in res.per_output.items()}
                for res in self.frame_results(eps, frames, eps10)]

    def cumulative_deltas(self, eps: EpsilonSpec, frames: int,
                          eps10: Optional[EpsilonSpec] = None
                          ) -> Dict[str, float]:
        """Per-output P[wrong in >=1 of ``frames`` cycles], assuming
        independent cycle failures: ``1 - prod_t (1 - delta_t)``."""
        per_frame = self.frame_deltas(eps, frames, eps10)
        out: Dict[str, float] = {}
        for po in self.seq.outputs:
            ok = 1.0
            for frame in per_frame:
                ok *= 1.0 - frame[po]
            out[po] = 1.0 - ok
        return out

    def steady_state(self, eps: EpsilonSpec,
                     eps10: Optional[EpsilonSpec] = None,
                     tol: float = 1e-10,
                     max_frames: int = 1024) -> SteadyStateResult:
        """Iterate the frame recurrence to its fixed point.

        Stops when no state error component (p01 or p10) moved more than
        ``tol`` in a cycle, or after ``max_frames`` cycles
        (``converged=False``).  A flop-free circuit converges after one
        frame by construction.
        """
        if max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {max_frames}")
        state: Dict[str, ErrorProbability] = {
            q: ERROR_FREE for q in self.seq.state_names}
        history: List[Dict[str, float]] = []
        converged = False
        residual = math.inf
        res: Optional[SinglePassResult] = None
        with trace_span("sequential.steady_state", circuit=self.seq.name,
                        tol=tol):
            for _ in range(max_frames):
                self._set_state(state)
                res = self._analyzer.run(eps, eps10)
                history.append({out: float(v)
                                for out, v in res.per_output.items()})
                new_state = self._next_state(res)
                residual = max(
                    (max(abs(new_state[q].p01 - state[q].p01),
                         abs(new_state[q].p10 - state[q].p10))
                     for q in new_state), default=0.0)
                state = new_state
                if residual <= tol:
                    converged = True
                    break
        signal = res.signal_prob
        state_flip = {
            ff.name: float(state[ff.name].total(signal[ff.data]))
            for ff in self.seq.flops}
        return SteadyStateResult(
            per_output=dict(history[-1]),
            state_errors=state,
            state_flip=state_flip,
            iterations=len(history),
            converged=converged,
            tol=tol,
            residual=float(residual),
            per_frame=history)

    def steady_state_curve(self, eps_values: Iterable[float],
                           output: Optional[str] = None,
                           tol: float = 1e-10,
                           max_frames: int = 1024) -> Dict[float, float]:
        """Steady-state delta(eps) over uniform failure probabilities."""
        return {float(e): self.steady_state(e, tol=tol,
                                            max_frames=max_frames
                                            ).delta(output)
                for e in eps_values}
