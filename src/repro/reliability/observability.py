"""Noiseless gate observability computation (paper Sec. 3).

The observability ``o_i`` of gate ``i`` at output ``y`` is the probability,
over uniform primary inputs, that forcing a flip of gate ``i``'s error-free
output changes ``y`` — all other gates noise-free.  The paper computes these
with BDDs (Boolean difference); a sampled bit-parallel estimator is provided
for circuits whose BDDs blow up.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bdd import CircuitBdds, build_node_bdds
from ..circuit import Circuit, GateType
from ..sim.montecarlo import monte_carlo_observabilities
from ..bdd.ops import _gate_bdd


def bdd_observabilities(circuit: Circuit,
                        output: Optional[str] = None,
                        bdds: Optional[CircuitBdds] = None,
                        gates: Optional[List[str]] = None
                        ) -> Dict[str, float]:
    """Exact observability of every gate at one primary output.

    For each gate ``g`` the functions of its transitive fanout inside the
    output cone are rebuilt with ``g``'s function complemented; the
    observability is ``Pr[F XOR F_flipped]`` — the Boolean difference of the
    output with respect to the gate, evaluated under uniform inputs.

    Parameters
    ----------
    output:
        Output to observe at (defaults to the circuit's single output).
    bdds:
        Reuse previously built node BDDs.
    gates:
        Restrict to these gates (default: all gates in the output cone).
        Gates outside the cone have observability 0 by definition.
    """
    if output is None:
        if len(circuit.outputs) != 1:
            raise ValueError("output name required for multi-output circuit")
        output = circuit.outputs[0]
    if bdds is None:
        bdds = build_node_bdds(circuit)

    cone_nodes = circuit.transitive_fanin([output])
    cone_set = set(cone_nodes)
    cone_gates = [n for n in cone_nodes
                  if circuit.node(n).gate_type.is_logic]
    targets = cone_gates if gates is None else list(gates)

    # Downstream nodes (within the cone) that must be rebuilt per gate.
    fanout_sets: Dict[str, set] = {}
    for name in reversed(cone_nodes):
        downstream = {name}
        for consumer in circuit.fanouts(name):
            if consumer in cone_set:
                downstream |= fanout_sets.get(consumer, {consumer})
        fanout_sets[name] = downstream

    out_bdd = bdds[output]
    differences: Dict[str, int] = {}
    for gate in targets:
        if gate not in cone_set:
            differences[gate] = 0  # the FALSE node
            continue
        affected = fanout_sets[gate]
        rebuilt = {gate: ~bdds[gate]}
        for name in cone_nodes:
            if name == gate or name not in affected:
                continue
            node = circuit.node(name)
            fanin_bdds = [rebuilt.get(f, bdds[f]) for f in node.fanins]
            rebuilt[name] = _gate_bdd(bdds.manager, node.gate_type, fanin_bdds)
        flipped_out = rebuilt.get(output, out_bdd)
        differences[gate] = (out_bdd ^ flipped_out).node
    table = bdds.manager.probabilities([0.5] * bdds.manager.num_vars)
    return {gate: float(table[node]) for gate, node in differences.items()}


def sampled_observabilities(circuit: Circuit,
                            output: Optional[str] = None,
                            n_patterns: int = 1 << 14,
                            seed: int = 0) -> Dict[str, float]:
    """Sampled observabilities (bit-parallel flip simulation)."""
    return monte_carlo_observabilities(circuit, output=output,
                                       n_patterns=n_patterns, seed=seed)


def compute_observabilities(circuit: Circuit,
                            output: Optional[str] = None,
                            method: str = "auto",
                            n_patterns: int = 1 << 14,
                            seed: int = 0) -> Dict[str, float]:
    """Dispatch between the exact and sampled observability estimators.

    ``auto`` uses BDDs up to a few hundred gates and falls back to sampling
    beyond that (or if the BDD build exceeds its node limit).
    """
    if method == "bdd":
        return bdd_observabilities(circuit, output=output)
    if method == "sampled":
        return sampled_observabilities(circuit, output=output,
                                       n_patterns=n_patterns, seed=seed)
    if method != "auto":
        raise ValueError(f"unknown observability method {method!r}")
    if circuit.num_gates <= 400:
        from ..bdd import BddManager, BddSizeLimitError
        try:
            bdds = build_node_bdds(circuit, BddManager(node_limit=500_000))
            return bdd_observabilities(circuit, output=output, bdds=bdds)
        except BddSizeLimitError:
            pass
    return sampled_observabilities(circuit, output=output,
                                   n_patterns=n_patterns, seed=seed)
