"""Lazy per-cone weight store for large netlists.

Weight vectors are the expensive eps-independent artifact: on a 50k-gate
netlist even the sampled estimator simulates every gate, and the BDD
route is hopeless.  But a query restricted to a few outputs only ever
*reads* the weights of the union output cone — often a tiny fraction of
the circuit.  :class:`LazyWeightData` is a drop-in
:class:`~repro.probability.weights.WeightData` whose ``weights`` /
``signal_prob`` mappings materialize one cone at a time, on first touch,
and persist each materialized cone through the ``conewt-`` namespace of
:mod:`repro.probability.weight_cache`.

Bit-identity contract
---------------------
A cone materialized here must carry *exactly* the numbers a full-circuit
:func:`~repro.probability.weights.compute_weights` run would have
produced for the same nodes — that is what makes ``outputs=``-restricted
analysis answers bit-identical to full runs.  Per method:

* ``exhaustive`` — joint counts over the cone's ``2**m`` input vectors
  and over the full circuit's ``2**n`` differ by the exact factor
  ``2**(n-m)`` in both numerator and denominator, so the (correctly
  rounded) float ratios coincide bit-for-bit.
* ``sampled`` — :func:`~repro.sim.patterns.random_pack` draws one
  stream, per input, in full-circuit input order.  The cone path draws
  that stream in input order up to the cone's last input — a prefix of
  the full pack, extended on demand when a later cone reaches further —
  keeps the cone's columns, and simulates only the cone; per-gate
  counting is batch-independent, so every shared node gets identical
  words.
* ``sat`` — every per-node value is derived from that node's own cone
  with a name-derived seed, so it never depends on which region of the
  circuit is being materialized.
* ``bdd`` — per-cone BDDs are isomorphic to the full build with the
  variable order restricted (relative input order is preserved by
  ``subcircuit``), so probabilities match; the one divergence is the
  node limit, which a cone may fit while the full build overflows (see
  docs/scaling.md).
* ``auto`` — resolved once against the **full** circuit (exhaustive for
  <= 20 inputs, else sampled).  The full-circuit ``auto`` ladder would
  try BDDs in between; the lazy path skips that rung because per-cone
  BDD success where the full build overflows would break region
  independence.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from ..circuit import Circuit
from ..obs import trace_span
from ..sim import patterns
from ..sim.simulator import simulate
from ..probability.weights import (
    WeightData,
    _weights_from_packs,
    bdd_weight_vectors,
    exhaustive_weight_vectors,
)

__all__ = ["LazyWeightData", "cone_weight_vectors", "resolve_lazy_method"]


def resolve_lazy_method(circuit: Circuit, method: str,
                        input_probs: Optional[Mapping[str, float]]) -> str:
    """Resolve ``"auto"`` against the *full* circuit (see module docs)."""
    if method != "auto":
        return method
    if len(circuit.inputs) <= 20 and not input_probs:
        return "exhaustive"
    return "sampled"


def cone_weight_vectors(circuit: Circuit, cone: Circuit, *,
                        method: str = "auto",
                        n_patterns: int = 1 << 16,
                        seed: int = 0,
                        input_probs: Optional[Dict[str, float]] = None,
                        pack: Optional[Mapping[str, np.ndarray]] = None
                        ) -> WeightData:
    """Weights for one cone, bit-identical to a full-circuit computation.

    ``circuit`` is the full netlist the cone was cut from (its input
    list anchors the sampled path's pattern stream and the ``auto``
    resolution); ``cone`` is a :meth:`~repro.circuit.Circuit.subcircuit`
    of it.  ``pack``, when given, must hold the full circuit's
    ``random_pack`` columns for ``(n_patterns, seed, input_probs)``, at
    least for the cone's inputs — callers materializing many cones pass
    it to amortize pattern generation.
    """
    method = resolve_lazy_method(circuit, method, input_probs)
    if method == "exhaustive":
        if input_probs:
            raise ValueError(
                "exhaustive weights assume uniform inputs; use bdd/sampled")
        return exhaustive_weight_vectors(cone)
    if method == "bdd":
        return bdd_weight_vectors(cone, input_probs=input_probs)
    if method == "sat":
        from ..probability.sat_weights import sat_weight_vectors
        return sat_weight_vectors(cone, n_patterns=n_patterns, seed=seed,
                                  input_probs=input_probs)
    if method == "sampled":
        if pack is None:
            pack = full_circuit_pack(circuit, n_patterns, seed, input_probs)
        values = simulate(cone, {name: pack[name] for name in cone.inputs})
        return _weights_from_packs(cone, values, n_patterns, "sampled")
    raise ValueError(f"unknown weight method {method!r}")


def full_circuit_pack(circuit: Circuit, n_patterns: int, seed: int,
                      input_probs: Optional[Mapping[str, float]]
                      ) -> Dict[str, np.ndarray]:
    """The full circuit's input pack — the sampled tier's shared stream."""
    rng = np.random.default_rng(seed)
    n_words = patterns.words_for_patterns(n_patterns)
    return patterns.random_pack(circuit.inputs, n_words, rng,
                                dict(input_probs) if input_probs else None)


class _LazyMap(Mapping):
    """Read-only mapping over a fixed key list, filled cone-by-cone."""

    def __init__(self, store: "LazyWeightData", keys: Sequence[str],
                 table: Dict[str, object]):
        self._store = store
        self._keys = list(keys)
        self._keyset = frozenset(self._keys)
        self._table = table

    def __getitem__(self, key: str):
        if key not in self._table:
            if key not in self._keyset:
                raise KeyError(key)
            self._store.materialize([key])
        return self._table[key]

    def __contains__(self, key: object) -> bool:
        return key in self._keyset

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class LazyWeightData(WeightData):
    """A :class:`WeightData` whose vectors materialize per output cone.

    Construction costs nothing beyond a topological walk.  Touching
    ``weights[g]`` (or ``signal_prob[n]``) cuts node ``g``'s cone out of
    the circuit, computes that cone's weights with the full-circuit
    bit-identity contract (see module docs), and retains them; repeat
    touches inside an already-materialized cone are plain dict hits.
    :meth:`restrict` is the bulk form the ``outputs=`` analysis path
    uses: one union cone, one cache entry, one plain
    :class:`WeightData` back.

    Iterating the mappings (e.g. ``dict(data.signal_prob)``) touches
    every node and therefore materializes the whole circuit — the
    restricted analyzer avoids that by operating on :meth:`restrict`'s
    plain snapshot instead.
    """

    def __init__(self, circuit: Circuit, *,
                 method: str = "auto",
                 n_patterns: int = 1 << 16,
                 seed: int = 0,
                 input_probs: Optional[Mapping[str, float]] = None,
                 cache_dir: Optional[str] = None):
        self.circuit = circuit
        self.method = resolve_lazy_method(circuit, method, input_probs)
        self.n_patterns = int(n_patterns)
        self.seed = int(seed)
        self.input_probs = dict(input_probs) if input_probs else None
        self.cache_dir = cache_dir
        self._weight_table: Dict[str, np.ndarray] = {}
        self._signal_table: Dict[str, float] = {}
        # The sampled tier's input pack, drawn in input order as far as
        # the cones materialized so far reach (see _shared_pack).
        self._pack: Dict[str, np.ndarray] = {}
        self._pack_rng: Optional[np.random.Generator] = None
        self._input_index: Dict[str, int] = {}
        #: Cone materializations performed (cache hits included).
        self.cones_materialized = 0
        super().__init__(
            weights=_LazyMap(self, circuit.topological_gates(),
                             self._weight_table),
            signal_prob=_LazyMap(self, circuit.topological_order(),
                                 self._signal_table),
            source=f"lazy-{self.method}")

    # -- materialization -----------------------------------------------
    @property
    def materialized_gates(self) -> int:
        """Gates whose weight vectors exist right now."""
        return len(self._weight_table)

    def materialize(self, roots: Iterable[str]) -> None:
        """Ensure every node of the union cone of ``roots`` is resident."""
        missing = [r for r in dict.fromkeys(roots)
                   if r not in self._signal_table
                   or (self.circuit.node(r).gate_type.is_logic
                       and r not in self._weight_table)]
        if not missing:
            return
        with trace_span("lazy_weights.materialize",
                        circuit=self.circuit.name, roots=len(missing)):
            cone = self.circuit.subcircuit(missing)
            data = self._cone_data(cone, ",".join(sorted(missing)))
        # setdefault: overlapping cones recompute identical values (the
        # bit-identity contract), so first-writer-wins is safe.
        for gate, vec in data.weights.items():
            self._weight_table.setdefault(gate, vec)
        for node, p in data.signal_prob.items():
            self._signal_table.setdefault(node, p)
        self.cones_materialized += 1

    def restrict(self, outputs: Sequence[str]) -> WeightData:
        """A plain :class:`WeightData` covering the union cone of
        ``outputs`` — the snapshot restricted analysis runs on."""
        cone = self.circuit.subcircuit(outputs)
        self.materialize(list(outputs))
        return WeightData(
            weights={g: self._weight_table[g]
                     for g in cone.topological_gates()},
            signal_prob={n: self._signal_table[n]
                         for n in cone.topological_order()},
            source=self.method)

    # -- internals ------------------------------------------------------
    def _cone_data(self, cone: Circuit, label: str) -> WeightData:
        if self.cache_dir is not None:
            from ..probability import weight_cache
            cached = weight_cache.load_cone_weights(
                self.cache_dir, self.circuit, label, self.method,
                self.n_patterns, self.seed, self.input_probs)
            if cached is not None:
                return cached
        data = cone_weight_vectors(
            self.circuit, cone, method=self.method,
            n_patterns=self.n_patterns, seed=self.seed,
            input_probs=self.input_probs, pack=self._shared_pack(cone))
        if self.cache_dir is not None:
            from ..probability import weight_cache
            weight_cache.store_cone_weights(
                self.cache_dir, self.circuit, label, self.method,
                self.n_patterns, self.seed, self.input_probs, data)
        return data

    def _shared_pack(self, cone: Circuit
                     ) -> Optional[Dict[str, np.ndarray]]:
        """The full circuit's pack, drawn at least up to ``cone``'s last
        input: a prefix of :func:`full_circuit_pack`'s stream."""
        if self.method != "sampled":
            return None
        inputs = self.circuit.inputs
        if not self._input_index:
            self._input_index = {name: i for i, name in enumerate(inputs)}
        end = 1 + max((self._input_index[name] for name in cone.inputs),
                      default=-1)
        drawn = len(self._pack)
        if end > drawn:
            if self._pack_rng is None:
                self._pack_rng = np.random.default_rng(self.seed)
            self._pack.update(patterns.random_pack(
                inputs[drawn:end], patterns.words_for_patterns(
                    self.n_patterns), self._pack_rng, self.input_probs))
        return self._pack
