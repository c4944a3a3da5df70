"""Error-event correlation coefficients for reconvergent fanout (Sec. 4.1).

For a pair of wires ``v, w`` the paper defines four correlation
coefficients — one per combination of a ``0→1`` or ``1→0`` error on each
wire — as the joint probability of the two events divided by the product of
their marginals.  The :class:`ErrorCorrelationEngine` computes them:

* at a *fanout source*, two copies of the same node carry identical events:
  same-direction coefficient ``1 / Pr(event)``, cross-direction 0;
* wires with disjoint transitive fanin cones are independent: all four
  coefficients are 1;
* otherwise the topologically later wire is expanded through its gate using
  the Fig. 4 conditional expression, recursing on its fanins' coefficients.

All results are memoized; a configurable pair budget degrades gracefully to
independence (coefficient 1) if a pathological circuit would otherwise
require quadratically many pairs.

The *structural* part of the analysis — which wire pairs can be correlated
at all, and which wire of a pair is expanded — lives in
:class:`PairStructure` so that the scalar engine and the compiled
correlated kernel (:class:`repro.reliability.compiled_pass.
CompiledCorrelatedPass`) share one classification and one deterministic
pair-ordering contract and cannot diverge on iteration order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from ..circuit import Circuit, truth_table
from ..circuit.analysis import support_bitsets
from .error_propagation import (
    ErrorProbability,
    conditional_error_probability,
)
from .weights import WeightData


class PairStructure:
    """Eps-independent structural facts about wire pairs (Sec. 4.1).

    Bundles the transitive-fanin support bitsets, topological positions and
    logic levels of every wire, plus the **canonical pair-ordering
    contract**:

    * a coefficient key is always stored with the *topologically later*
      wire first — :meth:`canonical` maps both query orders
      ``(a, ea, b, eb)`` / ``(b, eb, a, ea)`` to the same key, so a pair
      has exactly one memo entry and one compiled coefficient row;
    * topological position (not the wire *name*) breaks the tie because the
      Fig. 4 expansion must recurse through the later wire's gate — its
      fanins, and the conditioning wire, are all strictly earlier, which is
      what makes the recursion well-founded and the resulting coefficient
      values independent of query order.

    Both the scalar :class:`ErrorCorrelationEngine` and the compiled
    correlated kernel build their classification on this object, so the two
    paths see the same canonical keys by construction.  The compiled plan
    classifies whole arrays of pairs at once, on the array views below
    (indexed by topological slot, i.e. by ``topo_pos``).
    """

    def __init__(self, circuit: Circuit,
                 max_level_gap: Optional[int] = None):
        self.circuit = circuit
        self.max_level_gap = max_level_gap
        self.support = support_bitsets(circuit)
        order = circuit.topological_order()
        self.order = order
        self.topo_pos: Dict[str, int] = {n: i for i, n in enumerate(order)}
        self.level: Dict[str, int] = {n: circuit.level(n) for n in order}

    # -- array views (by topological slot), built on first use ----------
    @cached_property
    def slot_levels(self) -> np.ndarray:
        """Logic level of every wire by topological slot, shape (n,)."""
        return np.fromiter((self.level[n] for n in self.order),
                           dtype=np.int64, count=len(self.order))

    @cached_property
    def support_words(self) -> np.ndarray:
        """The support bitsets packed into uint64 words, shape (n, words).

        Row ``i`` is wire ``order[i]``'s bitset, little-endian, so two wires
        overlap iff any word of their rows' AND is nonzero.
        """
        n_bytes = 8 * max(1, -(-len(self.order) // 64))
        packed = b"".join(self.support[n].to_bytes(n_bytes, "little")
                          for n in self.order)
        return np.frombuffer(packed, dtype="<u8").reshape(len(self.order),
                                                          -1)

    def canonical(self, a: str, ea: int, b: str, eb: int
                  ) -> Tuple[str, int, str, int]:
        """The unique key form of a cross-wire pair: later wire first."""
        if self.topo_pos[a] < self.topo_pos[b]:
            return b, eb, a, ea
        return a, ea, b, eb

    def overlaps(self, a: str, b: str) -> bool:
        """Whether the two wires' transitive fanin cones intersect."""
        return bool(self.support[a] & self.support[b])

    def gapped(self, a: str, b: str) -> bool:
        """Whether the level-gap locality cap drops this (canonical) pair."""
        return (self.max_level_gap is not None
                and self.level[a] - self.level[b] > self.max_level_gap)


class ErrorCorrelationEngine:
    """Lazily computes the four error-event coefficients per wire pair.

    The engine is wired into the single-pass analysis: the ``errors``
    mapping is the analysis' evolving per-node table, filled in topological
    order, so every lookup the engine performs refers to already-processed
    nodes.  Instances are callables matching
    :data:`~repro.probability.error_propagation.CorrelationFn`.

    Parameters
    ----------
    circuit:
        Circuit under analysis.
    weights:
        Weight vectors/signal probabilities shared with the single pass.
    errors:
        Mutable mapping node → :class:`ErrorProbability`, owned by the
        single-pass analysis.
    eps_of:
        Callable giving each gate's failure probability.
    max_pairs:
        Memoization budget; beyond it new pairs return 1 (independence).
    max_level_gap:
        Optional locality cap: a coefficient is only expanded when the
        logic-level gap between the two wires is at most this value
        (longer-range pairs fall back to independence).  Correlation
        strength decays with the logic distance from the shared fanout
        stem, so a modest cap retains most of the Sec. 4.1 accuracy at a
        fraction of the cost on large circuits; ``None`` (default) expands
        every structurally correlated pair.
    """

    def __init__(self, circuit: Circuit,
                 weights: WeightData,
                 errors: Mapping[str, ErrorProbability],
                 eps_of,
                 max_pairs: int = 1_000_000,
                 max_level_gap: Optional[int] = None,
                 eps10_of=None):
        self.circuit = circuit
        self.weights = weights
        self.errors = errors
        self.eps_of = eps_of
        #: Optional asymmetric 1->0 local flip probability per gate.
        self.eps10_of = eps10_of
        self.max_pairs = max_pairs
        self.max_level_gap = max_level_gap
        #: Shared structural classification + canonical-ordering contract.
        self.structure = PairStructure(circuit, max_level_gap=max_level_gap)
        self._support = self.structure.support
        self._topo_pos = self.structure.topo_pos
        self._level = self.structure.level
        #: Memoized coefficients, keyed in *canonical* form only (see
        #: :meth:`PairStructure.canonical`): the topologically later wire
        #: first, so each cross-wire pair has exactly one entry.
        self._cache: Dict[Tuple[str, int, str, int], float] = {}
        self._truth_cache: Dict[str, tuple] = {}
        #: Set when the pair budget was exhausted at least once.
        self.budget_exceeded = False
        # Observability tallies (plain ints so the hot path stays cheap;
        # the single pass publishes them to repro.obs.metrics after a run).
        #: Lookups answered from the memo table.
        self.cache_hits = 0
        #: Pairs returned as independent because their fanin cones are
        #: disjoint (no correlation possible).
        self.pairs_independent = 0
        #: Pairs dropped to independence by the level-gap locality cap.
        self.pairs_dropped_level_gap = 0
        #: Pairs dropped to independence by the memo budget.
        self.pairs_dropped_budget = 0

    # ------------------------------------------------------------------
    def __call__(self, a: str, ea: int, b: str, eb: int) -> float:
        """Coefficient for the joint occurrence of ``a``'s and ``b``'s events."""
        if a == b:
            if ea != eb:
                return 0.0  # a wire cannot err in both directions at once
            p = float(self.errors[a].of_event(ea))
            # Cap at 1e9: a coefficient only ever multiplies probabilities,
            # so beyond this the products are ~0 either way, and finite
            # caps keep downstream float products overflow-free.
            return min(1.0 / p, 1e9) if p > 1e-9 else 1e9 if p > 0 else 1.0
        if not (self._support[a] & self._support[b]):
            self.pairs_independent += 1
            return 1.0
        a, ea, b, eb = self.structure.canonical(a, ea, b, eb)
        if self.structure.gapped(a, b):
            self.pairs_dropped_level_gap += 1
            return 1.0
        key = (a, ea, b, eb)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        if len(self._cache) >= self.max_pairs:
            self.budget_exceeded = True
            self.pairs_dropped_budget += 1
            return 1.0
        self._cache[key] = 1.0  # cycle guard; overwritten below
        result = self._expand(a, ea, b, eb)
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    def _expand(self, a: str, ea: int, b: str, eb: int) -> float:
        """Expand the later wire ``a`` through its gate, conditioned on b."""
        node = self.circuit.node(a)
        if not node.gate_type.is_logic:
            # Overlapping supports with a distinct input/constant cannot
            # happen structurally; independent by convention.
            return 1.0
        marginal = self.errors[a].of_event(ea)
        if marginal <= 0.0:
            return 1.0
        p_b = self.errors[b].of_event(eb)
        if p_b <= 0.0:
            return 1.0
        truth = self._truth_of(a)
        conditional = conditional_error_probability(
            side=0 if ea == 0 else 1,
            truth=truth,
            weights=self.weights.weights[a],
            fanins=node.fanins,
            errors=self.errors,
            eps=self.eps_of(a),
            corr=self,
            cond=(b, eb),
            eps10=self.eps10_of(a) if self.eps10_of else None,
        )
        marginal = float(marginal)
        if marginal <= 1e-300:
            return 1.0  # degenerate marginal: any coefficient scales ~0
        coefficient = conditional / marginal
        # Feasibility cap: Pr(joint) <= min(marginals).  Denormal-tiny
        # marginals would overflow the reciprocal; the cap is irrelevant
        # there (any term using it is ~0), so skip it.
        largest = max(float(marginal), float(p_b))
        if largest > 1e-300:
            coefficient = min(coefficient, 1.0 / largest)
        return max(0.0, min(coefficient, 1e9))

    def _truth_of(self, gate: str) -> tuple:
        cached = self._truth_cache.get(gate)
        if cached is None:
            node = self.circuit.node(gate)
            cached = truth_table(node.gate_type, node.arity)
            self._truth_cache[gate] = cached
        return cached

    @property
    def pairs_computed(self) -> int:
        """Number of memoized (wire, event) pair coefficients."""
        return len(self._cache)

    # -- deterministic views / seeding ---------------------------------
    def coefficient_items(self) -> Iterator[
            Tuple[Tuple[str, int, str, int], float]]:
        """Memoized coefficients in a deterministic order.

        Keys are canonical (later wire first); iteration is sorted by wire
        ids — ``(a, ea, b, eb)`` lexicographically — so two engines that
        memoized the same pairs yield identical sequences regardless of the
        order the pairs were first queried in.
        """
        return iter(sorted(self._cache.items()))

    def seed(self, items: Mapping[Tuple[str, int, str, int], float]) -> None:
        """Pre-populate the memo table with already-computed coefficients.

        ``items`` must be keyed in canonical form (the compiled correlated
        kernel produces exactly that); subsequent lookups hit the memo and
        uncached pairs still fall back to the lazy scalar expansion, so a
        seeded engine behaves like one that already answered those queries.
        """
        self._cache.update(items)


class IndependentCorrelations:
    """A null correlation provider: every coefficient is 1.

    Plugging this into the single pass reproduces the plain Sec. 4
    algorithm (independence assumed at reconvergence), which the ablation
    benchmarks compare against the Sec. 4.1 corrected variant.
    """

    budget_exceeded = False
    pairs_computed = 0
    cache_hits = 0
    pairs_independent = 0
    pairs_dropped_level_gap = 0
    pairs_dropped_budget = 0

    def __call__(self, a: str, ea: int, b: str, eb: int) -> float:
        return 1.0
