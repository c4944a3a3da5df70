"""Gate weight vectors: joint signal probability distributions of gate inputs.

The single-pass algorithm (paper Sec. 4) consumes, for every gate, a *weight
vector* ``W``: the probability of each error-free input combination.  For a
2-input gate ``W`` has four entries ``W00, W01, W10, W11`` (index bit ``t``
is fanin ``t``'s value).  Weight vectors depend only on circuit structure —
never on the gate failure probabilities — so they are computed once and
reused across reliability sweeps, exactly as the paper prescribes.

Three interchangeable sources are provided:

* :func:`bdd_weight_vectors` — exact, symbolic (the paper's BDD route);
* :func:`exhaustive_weight_vectors` — exact, via full-enumeration bit-parallel
  simulation (practical up to ~26 inputs);
* :func:`sampled_weight_vectors` — estimated from random-pattern simulation
  (the paper's other route; scales to any circuit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..bdd import BddManager, BddSizeLimitError, CircuitBdds, build_node_bdds
from ..circuit import Circuit
from ..obs import get_logger, trace_span
from ..obs import metrics as obs_metrics
from ..sim import patterns
from ..sim.simulator import exhaustive_simulate, simulate

_log = get_logger("probability.weights")

#: Node limit of the ``auto`` tier's BDD attempt (:func:`compute_weights`).
DEFAULT_BDD_NODE_LIMIT = 500_000


@dataclass
class WeightData:
    """Weight vectors for every gate plus per-node signal probabilities.

    Attributes
    ----------
    weights:
        ``weights[gate][v]`` is the probability that the error-free values
        of the gate's fanins equal the bit-pattern ``v`` (bit ``t`` of ``v``
        = fanin ``t``).  Entries sum to 1 per gate.
    signal_prob:
        ``signal_prob[node]`` = Pr[node = 1] error-free.  Needed for the
        final weighting ``delta_y = Pr(y=0) Pr(y01) + Pr(y=1) Pr(y10)``.
    source:
        Which estimator produced the data ("bdd", "exhaustive", "sampled").
    """

    weights: Dict[str, np.ndarray]
    signal_prob: Dict[str, float]
    source: str = "unknown"

    def weight(self, gate: str) -> np.ndarray:
        return self.weights[gate]

    def output_side_weight(self, gate: str, truth: tuple, side: int) -> float:
        """Total weight W(side) of input vectors producing output ``side``."""
        w = self.weights[gate]
        mask = np.asarray(truth, dtype=np.int8) == side
        return float(np.dot(w, mask))


def bdd_weight_vectors(circuit: Circuit,
                       bdds: Optional[CircuitBdds] = None,
                       input_probs: Optional[Dict[str, float]] = None,
                       manager: Optional[BddManager] = None) -> WeightData:
    """Exact weight vectors via BDDs (paper Sec. 4, symbolic route).

    All symbolic work runs before any arithmetic: the node BDDs (built on
    ``manager`` when ``bdds`` is not given), then every gate's fanin-literal
    conjunctions, then one :meth:`~repro.bdd.BddManager.probabilities`
    sweep over the unique table, from which signal probabilities and
    weight entries are read by node id.  A circuit whose BDDs outgrow the
    node limit therefore fails before computing a single probability.

    May raise :class:`~repro.bdd.BddSizeLimitError`, tagged with the
    ``stage`` (``"build"`` or ``"conjoin"``) that hit the limit; callers
    then fall back to :func:`sampled_weight_vectors`.
    """
    with trace_span("weights.bdd", circuit=circuit.name):
        stage = "build"
        try:
            if bdds is None:
                with trace_span("weights.bdd.build"):
                    bdds = build_node_bdds(circuit, manager)
            stage = "conjoin"
            with trace_span("weights.bdd.conjoin"):
                roots = _literal_conjunctions(circuit, bdds)
        except BddSizeLimitError as exc:
            exc.stage = stage
            raise
        probs = [0.5] * bdds.manager.num_vars
        if input_probs:
            for name, p in input_probs.items():
                probs[bdds.var_index[name]] = p
        with trace_span("weights.bdd.probability"):
            table = bdds.manager.probabilities(probs)
        names = circuit.topological_order()
        signal = table[[bdds[name].node for name in names]].tolist()
        weights = {gate: table[ids] for gate, ids in roots.items()}
        bdds.manager.publish_metrics()
        return WeightData(weights=weights,
                          signal_prob=dict(zip(names, signal)),
                          source="bdd")


def _literal_conjunctions(circuit: Circuit,
                          bdds: CircuitBdds) -> Dict[str, np.ndarray]:
    """Node ids of each gate's weight-vector functions, entry ``v`` the
    conjunction of fanin ``t`` (bit ``t`` of ``v`` set) or its complement."""
    true = bdds.manager.true
    roots: Dict[str, np.ndarray] = {}
    for gate in circuit.topological_gates():
        fanins = [bdds[fi] for fi in circuit.fanins(gate)]
        ids = np.empty(1 << len(fanins), dtype=np.int64)
        for v in range(len(ids)):
            acc = true
            for t, f in enumerate(fanins):
                acc = acc & (f if (v >> t) & 1 else ~f)
            ids[v] = acc.node
        roots[gate] = ids
    return roots


#: Soft cap on elements of one ``(2**k, k, words)`` selection tensor in
#: :func:`_weights_from_packs`; the word axis is chunked beyond it.
_PACK_CHUNK_ELEMENTS = 1 << 22


def _weights_from_packs(circuit: Circuit,
                        values: Dict[str, np.ndarray],
                        n_patterns: int,
                        source: str) -> WeightData:
    """Count joint input combinations per gate from simulated packs.

    All ``2**k`` joint counts of a gate are produced by one vectorized
    popcount over the stacked (and complemented) fanin packs, with the
    partial tail word pre-masked on both stacks so plain row popcounts are
    exact — no per-vector Python loop.
    """
    n_words = patterns.words_for_patterns(n_patterns)
    tmask = patterns.tail_mask(n_patterns)

    names = list(values)
    row = {name: i for i, name in enumerate(names)}
    masked = np.stack([values[name][:n_words] for name in names])
    masked[:, -1] &= tmask

    counts = np.zeros(len(names), dtype=np.int64)
    rows = max(1, _PACK_CHUNK_ELEMENTS // max(1, n_words))
    for start in range(0, len(names), rows):
        counts[start:start + rows] = patterns.rowwise_popcount(
            masked[start:start + rows])
    signal_prob = {name: int(counts[i]) / n_patterns
                   for i, name in enumerate(names)}

    # Batch gates by arity; for each subset S of fanins count the patterns
    # where every fanin in S is 1 (one AND-reduce + row popcount across the
    # whole gate batch), then recover the exact joint counts with an
    # integer superset Möbius transform:
    #   joint[v] = sum_{S >= v} (-1)^{|S|-|v|} m[S].
    by_arity: Dict[int, list] = {}
    for gate in circuit.topological_gates():
        by_arity.setdefault(len(circuit.fanins(gate)), []).append(gate)

    weights: Dict[str, np.ndarray] = {}
    for k, gates in by_arity.items():
        n_vec = 1 << k
        fanin_rows = np.asarray(
            [[row[fi] for fi in circuit.fanins(g)] for g in gates])
        chunk = max(1, _PACK_CHUNK_ELEMENTS // max(1, n_vec * n_words))
        for start in range(0, len(gates), chunk):
            batch = gates[start:start + chunk]
            rows_sl = fanin_rows[start:start + chunk]
            fan = masked[rows_sl]                            # (m, k, W)
            m = np.empty((len(batch), n_vec), dtype=np.int64)
            m[:, 0] = n_patterns
            # Subset-AND packs built by peeling the lowest set bit, so
            # each multi-bit subset costs one AND + one popcount; the
            # single-bit counts were already computed for signal_prob.
            and_packs: Dict[int, np.ndarray] = {}
            for subset in range(1, n_vec):
                low_bit = subset & -subset
                t = low_bit.bit_length() - 1
                rest = subset ^ low_bit
                if rest == 0:
                    m[:, subset] = counts[rows_sl[:, t]]
                    if n_vec > 2:
                        and_packs[subset] = fan[:, t, :]
                else:
                    p = np.bitwise_and(and_packs[rest], fan[:, t, :])
                    and_packs[subset] = p
                    m[:, subset] = patterns.rowwise_popcount(p)
            joint = m
            for t in range(k):
                bit = 1 << t
                low = [v for v in range(n_vec) if not v & bit]
                joint[:, low] -= joint[:, [v | bit for v in low]]
            vecs = joint / n_patterns
            for i, gate in enumerate(batch):
                weights[gate] = vecs[i]
    return WeightData(weights=weights, signal_prob=signal_prob, source=source)


def exhaustive_weight_vectors(circuit: Circuit) -> WeightData:
    """Exact weight vectors by enumerating all input vectors (<= 26 inputs)."""
    with trace_span("weights.exhaustive", circuit=circuit.name):
        values = exhaustive_simulate(circuit)
        n_patterns = max(64, 1 << len(circuit.inputs))
        return _weights_from_packs(circuit, values, n_patterns, "exhaustive")


def sampled_weight_vectors(circuit: Circuit,
                           n_patterns: int = 1 << 16,
                           rng: Optional[np.random.Generator] = None,
                           seed: int = 0,
                           input_probs: Optional[Dict[str, float]] = None
                           ) -> WeightData:
    """Weight vectors estimated from random-pattern simulation."""
    with trace_span("weights.sampled", circuit=circuit.name,
                    n_patterns=n_patterns):
        rng = rng if rng is not None else np.random.default_rng(seed)
        n_words = patterns.words_for_patterns(n_patterns)
        pack = patterns.random_pack(circuit.inputs, n_words, rng, input_probs)
        values = simulate(circuit, pack)
        return _weights_from_packs(circuit, values, n_patterns, "sampled")


def compute_weights(circuit: Circuit,
                    method: str = "auto",
                    n_patterns: int = 1 << 16,
                    seed: int = 0,
                    bdd_node_limit: int = DEFAULT_BDD_NODE_LIMIT,
                    input_probs: Optional[Dict[str, float]] = None,
                    cache_dir: Optional[str] = None) -> WeightData:
    """Pick a weight-vector estimator suited to the circuit size.

    ``method`` is one of ``"auto"``, ``"bdd"``, ``"exhaustive"``,
    ``"sampled"``, ``"sat"``.  Auto prefers exact enumeration for small
    input counts, then BDDs (abandoning them if they exceed
    ``bdd_node_limit`` nodes), then sampling.  A non-uniform
    ``input_probs`` distribution rules out the exhaustive
    (uniform-enumeration) and sat (unweighted-counting) routes.  The
    ``sat`` tier (see docs/scaling.md) grades per cone: exact
    enumeration for small cones, XOR-hash approximate model counting in
    the mid range, per-cone sampling beyond.

    ``cache_dir``, when given, consults a persistent disk cache first
    (see :mod:`repro.probability.weight_cache`) keyed by the circuit's
    structural hash plus ``(method, seed, n_patterns, input_probs)``, and
    ``bdd_node_limit`` for ``auto``; stale or corrupt entries are
    recomputed and overwritten.
    """
    if cache_dir is not None:
        from . import weight_cache
        cached = weight_cache.load_weights(
            cache_dir, circuit, method, n_patterns, seed, input_probs,
            bdd_node_limit)
        if cached is not None:
            return cached
        data = _compute_weights(circuit, method, n_patterns, seed,
                                bdd_node_limit, input_probs)
        weight_cache.store_weights(cache_dir, circuit, method, n_patterns,
                                   seed, input_probs, data, bdd_node_limit)
        return data
    return _compute_weights(circuit, method, n_patterns, seed,
                            bdd_node_limit, input_probs)


def _compute_weights(circuit: Circuit, method: str, n_patterns: int,
                     seed: int, bdd_node_limit: int,
                     input_probs: Optional[Dict[str, float]]) -> WeightData:
    if method == "bdd":
        return bdd_weight_vectors(circuit, input_probs=input_probs)
    if method == "exhaustive":
        if input_probs:
            raise ValueError(
                "exhaustive weights assume uniform inputs; use bdd/sampled")
        return exhaustive_weight_vectors(circuit)
    if method == "sampled":
        return sampled_weight_vectors(circuit, n_patterns=n_patterns,
                                      seed=seed, input_probs=input_probs)
    if method == "sat":
        from .sat_weights import sat_weight_vectors
        return sat_weight_vectors(circuit, n_patterns=n_patterns, seed=seed,
                                  input_probs=input_probs)
    if method != "auto":
        raise ValueError(f"unknown weight method {method!r}")
    if len(circuit.inputs) <= 20 and not input_probs:
        return exhaustive_weight_vectors(circuit)
    manager = BddManager(node_limit=bdd_node_limit)
    try:
        return bdd_weight_vectors(circuit, input_probs=input_probs,
                                  manager=manager)
    except BddSizeLimitError as exc:
        manager.publish_metrics()
        obs_metrics.inc("weights.fallback", reason="node_limit",
                        stage=exc.stage, **{"from": "bdd", "to": "sampled"})
        _log.info("%s: BDD weights passed the %d-node limit during %s; "
                  "falling back to sampled weights", circuit.name,
                  bdd_node_limit, exc.stage)
        return sampled_weight_vectors(circuit, n_patterns=n_patterns,
                                      seed=seed, input_probs=input_probs)
