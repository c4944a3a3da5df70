"""Single-pass reliability analysis (paper Sec. 4 and Sec. 4.1).

Gates are processed once, in topological order.  At each gate the
propagated input error components are combined — through the gate's weight
vector (joint error-free input distribution) — into a weighted input error
vector, which is then folded with the local failure probability ``eps``
into the gate's output error probabilities ``Pr(g_{0→1})`` and
``Pr(g_{1→0})``.  At the outputs,

    delta_y = Pr(y=0) Pr(y_{0→1}) + Pr(y=1) Pr(y_{1→0}).

Given weight vectors the pass is O(n); it is exact on fanout-free circuits
and uses the Sec. 4.1 error-event correlation coefficients to correct the
independence assumption at reconvergent fanout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, split_frame_name, truth_table
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..probability.correlation import ErrorCorrelationEngine
from ..probability.error_propagation import (
    ERROR_FREE,
    ErrorProbability,
    combine_with_local_failure,
    weighted_error_components,
)
from ..probability.weights import WeightData, compute_weights
from ..spec import (
    EpsilonSpec,
    epsilon_of,
    validate_epsilon,
    validate_sweep_specs,
)
from .compiled_pass import (
    CompiledCorrelatedPass,
    CompiledPassUnsupported,
    CompiledSinglePass,
    SweepResult,
)


@dataclass
class SinglePassResult:
    """Everything one single-pass run produces.

    Attributes
    ----------
    per_output:
        ``delta_y`` for every primary output.
    node_errors:
        The propagated :class:`ErrorProbability` of *every* node — the
        paper highlights this as an application enabler (per-node delta
        curves, asymmetric redundancy targeting).
    signal_prob:
        Error-free Pr[node = 1] (from the weight data).
    correlation_pairs:
        Number of wire-pair coefficients the correlation engine computed
        (0 when correlations were disabled).
    """

    per_output: Dict[str, float]
    node_errors: Dict[str, ErrorProbability]
    signal_prob: Dict[str, float]
    used_correlation: bool
    correlation_pairs: int = 0
    #: The run's correlation engine (memoized coefficients), kept so that
    #: multi-output consolidation can reuse it; None when disabled.
    correlation_engine: Optional[ErrorCorrelationEngine] = field(
        default=None, repr=False, compare=False)
    #: Time-frame count when the analyzed circuit is an unrolled sequential
    #: netlist; None for plain combinational runs (the default — results
    #: and payloads are byte-identical to before frames existed).
    frames: Optional[int] = None

    def delta(self, output: Optional[str] = None) -> float:
        """delta for one output (default: the only output)."""
        if output is None:
            if len(self.per_output) != 1:
                raise ValueError("output name required for multi-output result")
            return next(iter(self.per_output.values()))
        return self.per_output[output]

    def node_delta(self, node: str) -> float:
        """Unconditional error probability of an internal node."""
        return self.node_errors[node].total(self.signal_prob[node])

    @property
    def per_frame(self) -> Optional[List[Dict[str, float]]]:
        """Per-output deltas grouped by time frame, or None when
        combinational.

        Frame membership is recovered from the ``{output}@{t}`` names the
        unroller assigns; element ``t`` maps each base output name to its
        delta in frame ``t``.  A k=1 unroll of a stateless design keeps the
        original (untagged) names, so its single frame is the whole
        ``per_output`` map.
        """
        if self.frames is None:
            return None
        return group_per_frame(self.per_output, self.frames)

    def to_dict(self, include_nodes: bool = False) -> Dict[str, Any]:
        """JSON-serializable view (``--json`` / runlogs / ``repro serve``).

        ``include_nodes`` adds every internal node's propagated (p01, p10)
        pair — large on big circuits, so off by default.
        """
        data: Dict[str, Any] = {
            "per_output": {out: float(d)
                           for out, d in self.per_output.items()},
            "used_correlation": self.used_correlation,
            "correlation_pairs": self.correlation_pairs,
        }
        if self.frames is not None:
            # Emitted only for unrolled sequential runs so combinational
            # payloads stay byte-identical.
            data["frames"] = self.frames
            data["per_frame"] = self.per_frame
        if include_nodes:
            data["node_errors"] = {
                node: {"p01": float(ep.p01), "p10": float(ep.p10)}
                for node, ep in self.node_errors.items()}
            data["signal_prob"] = {node: float(p)
                                   for node, p in self.signal_prob.items()}
        return data


def group_per_frame(per_output: Mapping[str, float],
                    frames: int) -> List[Dict[str, float]]:
    """Split a ``{output@t: delta}`` map into per-frame ``{output: delta}``.

    Outputs without a frame tag (the k=1 stateless identity case, or
    user-added probes) land in the last frame, where final outputs live.
    """
    buckets: List[Dict[str, float]] = [{} for _ in range(frames)]
    for out, value in per_output.items():
        parsed = split_frame_name(out)
        if parsed is not None and 0 <= parsed[1] < frames:
            buckets[parsed[1]][parsed[0]] = float(value)
        else:
            buckets[frames - 1][out] = float(value)
    return buckets


def _normalize_output_subset(circuit: Circuit,
                             outputs: Sequence[str]) -> Tuple[str, ...]:
    """Validate/dedupe an output subset, ordered by full-circuit order."""
    known = set(circuit.outputs)
    requested = list(dict.fromkeys(outputs))
    unknown = [o for o in requested if o not in known]
    if unknown:
        raise ValueError(
            f"outputs {unknown!r} are not primary outputs of "
            f"{circuit.name!r}")
    if not requested:
        raise ValueError("outputs subset must name at least one output")
    want = set(requested)
    return tuple(o for o in circuit.outputs if o in want)


def _restrict_weights(circuit: Circuit, sel: Tuple[str, ...],
                      weights: Optional[WeightData], weight_method: str,
                      n_patterns: int, seed: int,
                      input_probs: Optional[Mapping[str, float]],
                      cache_dir: Optional[str]) -> Optional[WeightData]:
    """Weights for the cone of ``sel``, honoring the bit-identity contract.

    ``None`` weights become a lazy store restricted to the cone (only the
    cone is ever computed); an existing :class:`LazyWeightData` restricts
    in place; a plain full-circuit :class:`WeightData` is a superset and
    passes through untouched.
    """
    from ..scale import LazyWeightData
    if weights is None:
        lazy = LazyWeightData(
            circuit, method=weight_method, n_patterns=n_patterns, seed=seed,
            input_probs=dict(input_probs) if input_probs else None,
            cache_dir=cache_dir)
        return lazy.restrict(sel)
    if isinstance(weights, LazyWeightData):
        return weights.restrict(sel)
    return weights


class SinglePassAnalyzer:
    """Reusable single-pass engine: weights computed once, swept many times.

    The paper stresses that weight vectors are independent of ``eps`` and
    "may be performed once at the beginning and used over several runs";
    this class is that split.  Construct once per circuit, then call
    :meth:`run` for each failure-probability vector.

    Parameters
    ----------
    circuit:
        Circuit under analysis.
    weights:
        Precomputed :class:`WeightData` (else computed via
        ``weight_method``).
    weight_method:
        ``"auto"`` (default), ``"bdd"``, ``"exhaustive"``, ``"sampled"``,
        or ``"sat"`` (cone-local SAT/simulation ladder; see
        docs/scaling.md).
    outputs:
        Optional subset of the circuit's primary outputs.  The analyzer
        cuts the union cone (:meth:`~repro.circuit.Circuit.subcircuit`)
        and only lowers/weights that cone — on a large netlist this is
        the difference between touching a few hundred gates and all of
        them.  Results for the selected outputs are bit-identical to a
        full-circuit run (see docs/scaling.md for the two caveats:
        BDD node-limit divergence and the correlation-pair budget).
    use_correlation:
        Apply the Sec. 4.1 correlation-coefficient correction at
        reconvergent fanout (default True).
    input_errors:
        Optional error probabilities at the primary inputs (the algorithm's
        initial conditions; default: noise-free inputs).
    compiled:
        ``"auto"`` (default) dispatches :meth:`run`, :meth:`curve` and
        :meth:`sweep` to a vectorized kernel in **every** mode:
        :class:`CompiledCorrelatedPass` when the Sec. 4.1 correction is on,
        :class:`CompiledSinglePass` when it is off.  ``"off"`` forces the
        scalar reference path (the parity oracle); the scalar path also
        runs automatically when no plan can be built — oversized gate
        arity, or a correlated pair count beyond
        ``max_correlation_pairs`` (where the scalar engine degrades
        per-query instead of refusing).
    dtype:
        Accumulator precision of the independence kernel (default
        ``float64``; a float32 plan sweeps entirely in float32).
    frames:
        Metadata only: the time-frame count when ``circuit`` is an
        unrolled sequential netlist.  Stamped onto every result/sweep so
        per-frame views (``result.per_frame``) and payloads know the
        frame structure; does not change the numerics.
    """

    def __init__(self, circuit: Circuit,
                 weights: Optional[WeightData] = None,
                 weight_method: str = "auto",
                 use_correlation: bool = True,
                 input_errors: Optional[Mapping[str, ErrorProbability]] = None,
                 n_patterns: int = 1 << 16,
                 seed: int = 0,
                 max_correlation_pairs: int = 1_000_000,
                 max_correlation_level_gap: Optional[int] = None,
                 input_probs: Optional[Mapping[str, float]] = None,
                 compiled: str = "auto",
                 weights_cache_dir: Optional[str] = None,
                 dtype: np.dtype = np.float64,
                 frames: Optional[int] = None,
                 outputs: Optional[Sequence[str]] = None):
        circuit.validate()
        if compiled not in ("auto", "off"):
            raise ValueError(f"compiled must be 'auto' or 'off', "
                             f"got {compiled!r}")
        self.outputs_restriction: Optional[Tuple[str, ...]] = None
        if outputs is not None:
            sel = _normalize_output_subset(circuit, outputs)
            self.outputs_restriction = sel
            weights = _restrict_weights(
                circuit, sel, weights, weight_method, n_patterns, seed,
                input_probs, weights_cache_dir)
            circuit = circuit.subcircuit(sel)
        self.circuit = circuit
        if weights is not None:
            self.weights = weights
        else:
            with trace_span("single_pass.weights", circuit=circuit.name,
                            method=weight_method):
                self.weights = compute_weights(
                    circuit, method=weight_method, n_patterns=n_patterns,
                    seed=seed,
                    input_probs=dict(input_probs) if input_probs else None,
                    cache_dir=weights_cache_dir)
        self.use_correlation = use_correlation
        self.input_errors = dict(input_errors or {})
        self.max_correlation_pairs = max_correlation_pairs
        self.max_correlation_level_gap = max_correlation_level_gap
        self.compiled = compiled
        self.weights_cache_dir = weights_cache_dir
        self.dtype = np.dtype(dtype)
        if frames is not None and frames < 1:
            raise ValueError(f"frames must be >= 1, got {frames}")
        self.frames = frames
        self._plan = None
        self._plan_unsupported = False
        self._truth: Dict[str, tuple] = {}
        for gate in circuit.topological_gates():
            node = circuit.node(gate)
            self._truth[gate] = truth_table(node.gate_type, node.arity)

    # -- compiled-kernel dispatch --------------------------------------
    def _build_plan(self):
        """Build (once) the vectorized plan matching the analysis mode, or
        None if the circuit cannot be lowered (scalar fallback)."""
        if self.compiled == "off" or self._plan_unsupported:
            return None
        if self._plan is None:
            try:
                if self.use_correlation:
                    self._plan = CompiledCorrelatedPass(
                        self.circuit, self.weights,
                        input_errors=self.input_errors,
                        max_pairs=self.max_correlation_pairs,
                        max_level_gap=self.max_correlation_level_gap,
                        cache_dir=self.weights_cache_dir)
                else:
                    self._plan = CompiledSinglePass(
                        self.circuit, self.weights,
                        input_errors=self.input_errors,
                        dtype=self.dtype)
            except CompiledPassUnsupported:
                self._plan_unsupported = True
                return None
        return self._plan

    @property
    def uses_compiled(self) -> bool:
        """Whether run/curve/sweep will dispatch to a vectorized kernel."""
        return self._build_plan() is not None

    @property
    def plan(self):
        """The memoized compiled plan, or None on the scalar path.

        In independence mode this is the :class:`CompiledSinglePass`
        that cross-circuit batching (:class:`~repro.reliability.
        tensor_pass.TensorBatch`) merges across analyzers.
        """
        return self._build_plan()

    def _seed_engine(self, sweep: SweepResult, result: SinglePassResult,
                     eps: EpsilonSpec,
                     eps10: Optional[EpsilonSpec]) -> ErrorCorrelationEngine:
        """An :class:`ErrorCorrelationEngine` equivalent to the scalar run's.

        Consolidation (:mod:`repro.reliability.consolidated`) reuses the
        run's engine for cross-output covariance terms, so a compiled run
        must hand back one with the same memo state: it is built over the
        compiled node errors and pre-seeded with every compiled coefficient
        (canonically keyed, per the deterministic pair-ordering contract);
        pairs outside the compiled closure still expand lazily.
        """
        gates = self.circuit.topological_gates()
        eps_map = {g: epsilon_of(eps, g) for g in gates}
        eps10_map = (None if eps10 is None
                     else {g: epsilon_of(eps10, g) for g in gates})
        engine = ErrorCorrelationEngine(
            self.circuit, self.weights, result.node_errors,
            eps_of=lambda g: eps_map[g],
            max_pairs=self.max_correlation_pairs,
            max_level_gap=self.max_correlation_level_gap,
            eps10_of=(None if eps10_map is None
                      else (lambda g: eps10_map[g])))
        if sweep.correlation_pair_keys:
            engine.seed({
                key: float(sweep.correlation_coefficients[i, 0])
                for i, key in enumerate(sweep.correlation_pair_keys)})
        return engine

    def run(self, eps: EpsilonSpec,
            eps10: Optional[EpsilonSpec] = None) -> SinglePassResult:
        """One topological pass for one failure-probability vector.

        ``eps10``, when given, makes every gate's local channel asymmetric:
        its computed output flips 0→1 with ``eps`` and 1→0 with ``eps10``
        (the symmetric BSC is the default, as in the paper).
        """
        validate_epsilon(eps, self.circuit)
        if eps10 is not None:
            validate_epsilon(eps10, self.circuit)
        with trace_span("single_pass.run", circuit=self.circuit.name):
            plan = self._build_plan()
            if plan is not None:
                sweep = plan.run(eps, eps10)
                sweep.frames = self.frames
                result = sweep.point(0)
                if self.use_correlation:
                    result.correlation_engine = self._seed_engine(
                        sweep, result, eps, eps10)
                if obs_metrics.is_enabled():
                    labels = {"circuit": self.circuit.name}
                    obs_metrics.inc("single_pass.runs", **labels)
                    obs_metrics.inc("single_pass.gates_processed",
                                    len(plan.gate_names), **labels)
                return result
            return self._run(eps, eps10)

    def _run(self, eps: EpsilonSpec,
             eps10: Optional[EpsilonSpec]) -> SinglePassResult:
        circuit = self.circuit
        errors: Dict[str, ErrorProbability] = {}
        for name in circuit.topological_order():
            node = circuit.node(name)
            if node.gate_type.is_input:
                errors[name] = self.input_errors.get(name, ERROR_FREE)
            elif node.gate_type.is_constant:
                errors[name] = ERROR_FREE

        # Materialize the spec once so hot loops use plain dict lookups.
        gates = circuit.topological_gates()
        eps_map = {g: epsilon_of(eps, g) for g in gates}
        eps10_map = (None if eps10 is None
                     else {g: epsilon_of(eps10, g) for g in gates})
        corr = None
        if self.use_correlation:
            corr = ErrorCorrelationEngine(
                circuit, self.weights, errors,
                eps_of=lambda g: eps_map[g],
                max_pairs=self.max_correlation_pairs,
                max_level_gap=self.max_correlation_level_gap,
                eps10_of=(None if eps10_map is None
                          else (lambda g: eps10_map[g])))

        with trace_span("single_pass.topological_pass", gates=len(gates)):
            for gate in gates:
                node = circuit.node(gate)
                pw0, w0, pw1, w1 = weighted_error_components(
                    self._truth[gate], self.weights.weights[gate],
                    node.fanins, errors, corr=corr)
                errors[gate] = combine_with_local_failure(
                    pw0, w0, pw1, w1, eps_map[gate],
                    eps10=None if eps10_map is None else eps10_map[gate])

        with trace_span("single_pass.per_output_delta",
                        outputs=len(circuit.outputs)):
            per_output = {}
            for out in circuit.outputs:
                p1 = self.weights.signal_prob[out]
                per_output[out] = errors[out].total(p1)
        if obs_metrics.is_enabled():
            labels = {"circuit": circuit.name}
            obs_metrics.inc("single_pass.runs", **labels)
            obs_metrics.inc("single_pass.gates_processed", len(gates),
                            **labels)
            if corr is not None:
                obs_metrics.inc("correlation.pairs_tracked",
                                corr.pairs_computed, **labels)
                obs_metrics.inc("correlation.pairs_dropped_budget",
                                corr.pairs_dropped_budget, **labels)
                obs_metrics.inc("correlation.pairs_dropped_level_gap",
                                corr.pairs_dropped_level_gap, **labels)
                obs_metrics.inc("correlation.pairs_independent",
                                corr.pairs_independent, **labels)
                obs_metrics.inc("correlation.cache_hits",
                                corr.cache_hits, **labels)
        return SinglePassResult(
            per_output=per_output,
            node_errors=errors,
            signal_prob=dict(self.weights.signal_prob),
            used_correlation=self.use_correlation,
            correlation_pairs=corr.pairs_computed if corr else 0,
            correlation_engine=corr,
            frames=self.frames,
        )

    def sweep(self, eps_values: Sequence[EpsilonSpec],
              eps10_values: Optional[Sequence[EpsilonSpec]] = None,
              jobs: int = 1) -> SweepResult:
        """Evaluate many failure-probability vectors in one call.

        In every mode the sweep is normally a single vectorized pass with a
        trailing eps axis (the correlated kernel includes the Sec. 4.1
        coefficients in that axis).  Only when no compiled plan exists —
        ``compiled="off"``, an unloweable gate, or a correlated pair count
        beyond the budget — do the points run as independent scalar passes;
        there ``jobs > 1`` fans them out over a process pool, with the
        analyzer pickled once per worker so weights and correlation caches
        are shared per process, not per point.
        """
        specs, eps10_list = validate_sweep_specs(self.circuit, eps_values,
                                                 eps10_values)
        with trace_span("single_pass.sweep", circuit=self.circuit.name,
                        points=len(specs), jobs=jobs):
            plan = self._build_plan()
            if plan is not None:
                if jobs > 1:
                    # Don't silently swallow the flag: the compiled kernel
                    # already batches every point into one vectorized
                    # pass, so there is nothing for a pool to split.
                    from ..obs import get_logger
                    get_logger("single_pass").warning(
                        "jobs=%d ignored: the compiled kernel evaluates "
                        "all %d sweep points in one vectorized pass "
                        "(use compiled='off' to force the scalar pool)",
                        jobs, len(specs))
                    if obs_metrics.is_enabled():
                        obs_metrics.inc("single_pass.jobs_ignored",
                                        circuit=self.circuit.name)
                sweep = plan.run_sweep(specs, eps10_list)
                sweep.frames = self.frames
                return sweep
            tasks = [(spec, None if eps10_list is None else eps10_list[j])
                     for j, spec in enumerate(specs)]
            if jobs > 1 and len(tasks) > 2:
                results = [self.run(*tasks[0])] + self._pool_run(
                    tasks[1:], jobs)
            else:
                results = [self.run(eps, eps10) for eps, eps10 in tasks]
            return self._assemble_sweep(specs, eps10_list, results)

    def _pool_run(self, tasks, jobs: int) -> List[SinglePassResult]:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_sweep_worker_init,
                                 initargs=(self,)) as pool:
            results = list(pool.map(_sweep_worker_point, tasks))
        if obs_metrics.is_enabled():
            labels = {"circuit": self.circuit.name}
            obs_metrics.inc("single_pass.runs", len(tasks), **labels)
            obs_metrics.inc(
                "single_pass.gates_processed",
                len(self.circuit.topological_gates()) * len(tasks), **labels)
        return results

    def _assemble_sweep(self, specs, eps10_list,
                        results: Sequence[SinglePassResult]) -> SweepResult:
        """Stack per-point scalar results into dense sweep matrices."""
        node_names = self.circuit.topological_order()
        outputs = list(self.circuit.outputs)
        n_points = len(results)
        p01 = np.empty((len(node_names), n_points))
        p10 = np.empty((len(node_names), n_points))
        per_output = np.empty((len(outputs), n_points))
        for j, res in enumerate(results):
            for i, name in enumerate(node_names):
                ep = res.node_errors[name]
                p01[i, j] = ep.p01
                p10[i, j] = ep.p10
            for o, out in enumerate(outputs):
                per_output[o, j] = res.per_output[out]
        return SweepResult(
            circuit_name=self.circuit.name,
            eps_specs=list(specs),
            eps10_specs=eps10_list,
            node_names=list(node_names),
            outputs=outputs,
            per_output=per_output,
            p01=p01,
            p10=p10,
            signal_prob=dict(self.weights.signal_prob),
            used_correlation=self.use_correlation,
            correlation_pairs=np.asarray(
                [res.correlation_pairs for res in results], dtype=np.int64),
            frames=self.frames,
        )

    def curve(self, eps_values: Iterable[float],
              output: Optional[str] = None,
              jobs: int = 1) -> Dict[float, float]:
        """delta(eps) over a sweep of uniform gate failure probabilities."""
        eps_list = list(eps_values)
        if not eps_list:
            return {}
        result = self.sweep(eps_list, jobs=jobs)
        values = result.delta(output)
        return {e: float(v) for e, v in zip(eps_list, values)}


#: Per-process analyzer for scalar sweep fan-out; set by the pool
#: initializer so each worker unpickles the (read-only) analyzer once.
_SWEEP_ANALYZER: Optional[SinglePassAnalyzer] = None


def _sweep_worker_init(analyzer: SinglePassAnalyzer) -> None:
    global _SWEEP_ANALYZER
    _SWEEP_ANALYZER = analyzer


def _sweep_worker_point(task) -> SinglePassResult:
    eps, eps10 = task
    result = _SWEEP_ANALYZER.run(eps, eps10)
    # The engine holds closures over the eps spec and cannot cross the
    # process boundary; drop it from the shipped result.
    result.correlation_engine = None
    return result
