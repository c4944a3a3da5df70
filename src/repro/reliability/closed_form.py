"""Observability-based closed-form reliability analysis (paper Sec. 3).

The headline result of Sec. 3 is Eqn. (3): with ``o_i`` the noiseless
observability of gate ``i`` at output ``y``,

    delta_y(eps) = 1/2 * (1 - prod_i (1 - 2 eps_i o_i)).

The derivation views each failed-and-observable gate as a flip of ``y``;
``y`` errs when an odd number of such flips occur, and the product form is
the parity generating function.  The expression is exact to first order in
the ``eps_i`` (single-failure dominance), which makes it the tool of choice
for soft-error-rate work, and cheap to re-evaluate: observabilities are
computed once, after which any new ``eps`` vector costs O(n) multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..circuit import Circuit
from ..spec import EpsilonSpec, epsilon_of, validate_epsilon
from .observability import compute_observabilities

#: Node limit of the multi-output model's ``auto`` BDD attempt.  c432
#: needs 1,038,831 nodes, so a lower limit would change its answer.
OBSERVABILITY_NODE_LIMIT = 2_000_000


@dataclass
class ClosedFormResult:
    """Eqn. (3) evaluation packaged as a shared-protocol result object.

    Produced by :meth:`ObservabilityModel.analyze` and
    :meth:`MultiOutputObservabilityModel.analyze` so closed-form answers
    travel through the same ``delta()`` / ``per_output`` / ``to_dict()``
    surface as every other analysis
    (:class:`~repro.reliability.protocol.ResultProtocol`).
    """

    #: delta_y per output (only the modeled output for the 1-output model).
    per_output: Dict[str, float]
    #: First-order consolidated estimate; None for the 1-output model.
    any_output: Optional[float] = None
    method: str = "closed-form"

    def delta(self, output: Optional[str] = None) -> float:
        """delta for one output (default: the only output)."""
        if output is None:
            if len(self.per_output) != 1:
                raise ValueError("output name required for multi-output result")
            return next(iter(self.per_output.values()))
        return self.per_output[output]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view (shared ``ResultProtocol`` surface)."""
        data: Dict[str, object] = {
            "per_output": {out: float(d)
                           for out, d in self.per_output.items()},
            "method": self.method,
        }
        if self.any_output is not None:
            data["any_output"] = float(self.any_output)
        return data


def closed_form_delta(eps: EpsilonSpec,
                      observabilities: Dict[str, float]) -> float:
    """Evaluate Eqn. (3) for one output given gate observabilities.

    Computed as ``-expm1(sum(log1p(-2 eps_i o_i))) / 2`` so that the
    soft-error regime (eps ~ 1e-20 per cycle) does not underflow to zero
    the way the naive product would in double precision.
    """
    log_sum = 0.0
    for gate, o in observabilities.items():
        term = -2.0 * epsilon_of(eps, gate) * o
        if term <= -1.0:
            return 0.5  # a fully noisy, fully observable gate saturates delta
        log_sum += math.log1p(term)
    return -0.5 * math.expm1(log_sum)


class ObservabilityModel:
    """Precomputed-observability reliability model for one output.

    Build once per (circuit, output); then :meth:`delta` re-evaluates the
    closed form for arbitrary failure-probability vectors in O(n) — the
    flexibility the paper contrasts with Monte Carlo's full re-simulation.

    Parameters
    ----------
    circuit:
        Circuit under analysis.
    output:
        Output of interest (defaults to the single output).
    method:
        Observability estimator: ``"bdd"``, ``"sampled"``, or ``"auto"``.
    """

    def __init__(self, circuit: Circuit,
                 output: Optional[str] = None,
                 method: str = "auto",
                 observabilities: Optional[Dict[str, float]] = None,
                 n_patterns: int = 1 << 14,
                 seed: int = 0):
        if output is None:
            if len(circuit.outputs) != 1:
                raise ValueError(
                    "output name required for multi-output circuit")
            output = circuit.outputs[0]
        self.circuit = circuit
        self.output = output
        if observabilities is None:
            observabilities = compute_observabilities(
                circuit, output=output, method=method,
                n_patterns=n_patterns, seed=seed)
        #: Noiseless observability of each gate at :attr:`output`.
        self.observabilities = dict(observabilities)

    def delta(self, eps: EpsilonSpec) -> float:
        """delta_y(eps) via Eqn. (3)."""
        validate_epsilon(eps, self.circuit)
        return closed_form_delta(eps, self.observabilities)

    def analyze(self, eps: EpsilonSpec) -> ClosedFormResult:
        """Eqn. (3) for one eps vector as a protocol result object."""
        return ClosedFormResult(per_output={self.output: self.delta(eps)})

    def curve(self, eps_values: Iterable[float]) -> Dict[float, float]:
        """delta over a sweep of uniform gate failure probabilities."""
        return {e: self.delta(e) for e in eps_values}

    def derivative(self, eps: EpsilonSpec, gate: str) -> float:
        """Exact partial derivative d delta / d eps_gate of Eqn. (3).

        ``d/d eps_i [1/2 (1 - prod_j (1 - 2 eps_j o_j))]
        = o_i * prod_{j != i} (1 - 2 eps_j o_j)`` — the closed form's gate
        criticality, used for redundancy-targeting (Sec. 5.1).
        """
        if gate not in self.observabilities:
            raise KeyError(f"gate {gate!r} has no observability entry")
        product = 1.0
        for other, o in self.observabilities.items():
            if other != gate:
                product *= 1.0 - 2.0 * epsilon_of(eps, other) * o
        return self.observabilities[gate] * product

    def gradient(self, eps: EpsilonSpec) -> Dict[str, float]:
        """All partial derivatives at once (O(n) with prefix products)."""
        gates = list(self.observabilities)
        factors = [1.0 - 2.0 * epsilon_of(eps, g) * self.observabilities[g]
                   for g in gates]
        n = len(gates)
        prefix = [1.0] * (n + 1)
        for i, f in enumerate(factors):
            prefix[i + 1] = prefix[i] * f
        suffix = [1.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] * factors[i]
        return {g: self.observabilities[g] * prefix[i] * suffix[i + 1]
                for i, g in enumerate(gates)}

    def critical_gates(self, eps: EpsilonSpec, top_k: int = 10
                       ) -> Sequence[str]:
        """Gates ranked by decreasing contribution to output error."""
        grad = self.gradient(eps)
        ranked = sorted(grad, key=grad.get, reverse=True)
        return ranked[:top_k]


class MultiOutputObservabilityModel:
    """Closed-form reliability across every output of a circuit.

    Holds one :class:`ObservabilityModel` per output plus the gates'
    *any-output* observabilities (probability a flip changes at least one
    output), which drive a first-order estimate of the consolidated
    failure probability — the natural circuit-level SER figure.

    The per-output deltas use the full Eqn. (3); the consolidated estimate
    ``1/2 (1 - prod(1 - 2 eps_i o_i^any))`` is exact to first order in eps
    (its leading term is ``sum_i eps_i o_i^any``) but, unlike the single
    -output case, carries no parity argument beyond that — use
    :class:`~repro.reliability.consolidated.ConsolidatedAnalyzer` or Monte
    Carlo when multi-failure consolidation accuracy matters.

    ``method="auto"`` builds BDDs for circuits of at most 400 gates and
    samples beyond that, or when the BDDs pass
    :data:`OBSERVABILITY_NODE_LIMIT` (recorded in :attr:`fallbacks`).
    """

    def __init__(self, circuit: Circuit,
                 method: str = "auto",
                 n_patterns: int = 1 << 14,
                 seed: int = 0):
        self.circuit = circuit
        self.per_output_models: Dict[str, ObservabilityModel] = {}
        #: Envelope entries naming an exact estimate asked for and not
        #: given: an ``auto`` BDD attempt abandoned at its node limit.
        self.fallbacks: List[Dict[str, Any]] = []
        any_obs = None
        if method == "bdd" or (method == "auto" and circuit.num_gates <= 400):
            from ..bdd import BddManager, BddSizeLimitError, build_node_bdds
            from .observability import bdd_observabilities
            try:
                bdds = build_node_bdds(
                    circuit, BddManager(node_limit=OBSERVABILITY_NODE_LIMIT))
                models = {out: ObservabilityModel(
                    circuit, output=out,
                    observabilities=bdd_observabilities(circuit, output=out,
                                                        bdds=bdds))
                    for out in circuit.outputs}
                any_obs = _any_output_from_bdds(circuit, bdds)
                self.per_output_models = models
            except BddSizeLimitError:
                if method == "bdd":
                    raise
                self.fallbacks.append({
                    "from": "bdd-observabilities",
                    "to": "sampled-observabilities",
                    "reason": f"exact BDD observabilities passed the "
                              f"{OBSERVABILITY_NODE_LIMIT}-node limit; "
                              f"observabilities estimated from "
                              f"{n_patterns} random patterns",
                    "node_limit": OBSERVABILITY_NODE_LIMIT})
        if any_obs is None:
            for out in circuit.outputs:
                self.per_output_models[out] = ObservabilityModel(
                    circuit, output=out, method="sampled",
                    n_patterns=n_patterns, seed=seed)
            any_obs = _sampled_any_output_observabilities(
                circuit, n_patterns=n_patterns, seed=seed)
        #: Pr[a flip at gate g changes at least one output].
        self.any_output_observabilities = any_obs

    def delta(self, eps: EpsilonSpec) -> Dict[str, float]:
        """Per-output delta via Eqn. (3)."""
        return {out: model.delta(eps)
                for out, model in self.per_output_models.items()}

    def any_output_delta(self, eps: EpsilonSpec) -> float:
        """First-order consolidated failure probability estimate."""
        validate_epsilon(eps, self.circuit)
        return closed_form_delta(eps, self.any_output_observabilities)

    def analyze(self, eps: EpsilonSpec) -> ClosedFormResult:
        """Per-output + consolidated deltas as a protocol result object."""
        return ClosedFormResult(per_output=self.delta(eps),
                                any_output=self.any_output_delta(eps))


def _sampled_any_output_observabilities(circuit: Circuit,
                                        n_patterns: int,
                                        seed: int) -> Dict[str, float]:
    import numpy as np
    from ..sim import patterns as pat
    from ..sim.simulator import CompiledCircuit
    compiled = CompiledCircuit(circuit)
    rng = np.random.default_rng(seed)
    n_words = pat.words_for_patterns(n_patterns)
    input_pack = pat.random_pack(circuit.inputs, n_words, rng)
    clean = compiled.run(input_pack)
    all_ones = pat.ones(n_words)
    result: Dict[str, float] = {}
    for gate, _ in compiled.gate_slots:
        def noise(name: str, words: int, _g=gate):
            return all_ones if name == _g else None

        flipped = compiled.run(input_pack, noise=noise)
        any_diff = np.zeros(n_words, dtype=np.uint64)
        for _, slot in compiled.output_slots:
            np.bitwise_or(any_diff,
                          np.bitwise_xor(clean[slot], flipped[slot]),
                          out=any_diff)
        result[gate] = pat.masked_popcount(any_diff, n_patterns) / n_patterns
    return result


def _any_output_from_bdds(circuit: Circuit, bdds) -> Dict[str, float]:
    from ..bdd.ops import _gate_bdd
    cone_nodes = circuit.transitive_fanin(circuit.outputs)
    cone_set = set(cone_nodes)
    differences: Dict[str, int] = {}
    for gate in circuit.topological_gates():
        if gate not in cone_set:
            differences[gate] = 0  # the FALSE node
            continue
        rebuilt = {gate: ~bdds[gate]}
        for name in cone_nodes:
            if name == gate:
                continue
            node = circuit.node(name)
            if not node.gate_type.is_logic:
                continue
            if not any(f in rebuilt for f in node.fanins):
                continue
            fanins = [rebuilt.get(f, bdds[f]) for f in node.fanins]
            rebuilt[name] = _gate_bdd(bdds.manager, node.gate_type, fanins)
        acc = bdds.manager.false
        for out in circuit.outputs:
            acc = acc | (bdds[out] ^ rebuilt.get(out, bdds[out]))
        differences[gate] = acc.node
    table = bdds.manager.probabilities([0.5] * bdds.manager.num_vars)
    return {gate: float(table[node]) for gate, node in differences.items()}
