"""Compiled single-pass kernel: vectorized error propagation with an eps axis.

The paper's scalability argument (Sec. 4, Table 2) is that weight vectors
are computed once and the O(n) propagation pass is re-run cheaply for every
failure-probability vector — eps sweeps, SER estimation, design-space
exploration.  The scalar pass in :mod:`repro.reliability.single_pass`
honors the split but spends its time in per-gate Python loops over ``2**k``
truth rows and perturbation tuples, and repeats all of it per eps point.

:class:`CompiledSinglePass` removes both costs.  It lowers a circuit plus
its :class:`~repro.probability.weights.WeightData` into integer-indexed
numpy arrays **once** (mirroring how :class:`repro.sim.simulator.
CompiledCircuit` compiles for bit-parallel simulation):

* node error state lives in two dense ``(nodes, E)`` matrices ``P01`` /
  ``P10`` indexed by topological slot, where ``E`` is the number of eps
  points — the *trailing eps axis*;
* gates are grouped by topological level and, within a level, by
  ``(truth table, arity)`` class; each group carries its fanin slot matrix,
  its stacked weight vectors, and the class's shared transition lowering
  (:func:`repro.probability.error_propagation.transition_lowering`);
* evaluating a group is a handful of vectorized tensor ops over
  ``(2**k, gates, 2**k, E)`` — every gate of the class, every error-free
  vector, every perturbation, and every eps point at once.

:meth:`CompiledSinglePass.run_sweep` therefore computes the entire
delta(eps) curve — including asymmetric ``eps10`` channels and per-gate
eps maps, broadcast to ``(gates, E)`` — in one pass instead of ``E``
Python passes.  That kernel implements the plain Sec. 4 independence
algorithm; parity with the scalar pass is pinned to <= 1e-12 by
``tests/test_compiled_pass.py``.

:class:`CompiledCorrelatedPass` extends the same lowering to the Sec. 4.1
**correlation-corrected** pass.  On top of the plain plan it compiles the
:class:`~repro.probability.correlation.ErrorCorrelationEngine`'s lazy
per-pair coefficient state into an integer-indexed *coefficient row table*:

* structural pair discovery (a closure over the Fig. 4 expansion, using
  the same :class:`~repro.probability.correlation.PairStructure`
  classification and canonical pair ordering as the scalar engine) assigns
  every reachable ``(wire, event, wire, event)`` pair a row index;
* at run time the rows live in one dense ``(rows, E)`` matrix ``C`` —
  same-wire rows read a wire's propagated state, expansion rows run a
  pre-lowered Fig. 4 program — evaluated in a level schedule that
  guarantees every child row and every fanin state is final before use;
* gates whose transitions reference only the constant-1 row run through
  the batched independence kernel unchanged; the remaining gates and all
  expansion rows are lowered to op *skeletons* with their state slots,
  coefficient rows and weights pulled out as operands, and grouped by
  (level, wave, skeleton).  A *wave* is the dependency depth among the
  expansion rows of one level.  Each group gathers its operands into
  ``(R, E)`` arrays, runs the skeleton once — elementwise arithmetic
  mirroring the scalar ``_correlated_transition`` clamp for clamp — and
  scatters its ``R`` results with one fancy assignment, so the kernel's
  dispatch cost scales with the group count, not the row count.

:class:`~repro.reliability.single_pass.SinglePassAnalyzer` dispatches to
one of the two kernels in **all** modes, keeping the scalar engine as a
parity oracle (``compiled="off"``) and as the fallback when a plan cannot
be built (oversized arity, pair budget exceeded).  Correlated parity is
pinned to <= 1e-10 on the full circuit catalog.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, truth_table
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..probability.correlation import PairStructure
from ..probability.error_propagation import (
    EVENT_1TO0,
    ErrorProbability,
    correlated_transition_lowering,
    transition_lowering,
)
from ..probability.weight_cache import (
    load_correlation_plan,
    store_correlation_plan,
)
from ..probability.weights import WeightData
from ..spec import (
    EpsilonSpec,
    epsilon_of,
    validate_epsilon,
    validate_sweep_specs,
)


class CompiledPassUnsupported(ValueError):
    """The circuit cannot be lowered into the vectorized kernel.

    Raised at plan-construction time (e.g. a gate arity whose ``4**k``
    transition tensors would not fit in memory); callers fall back to the
    scalar pass.
    """


#: Widest gate the kernel lowers; the per-class tensors scale as ``4**k``.
MAX_COMPILED_ARITY = 12

#: Soft cap on elements of one ``(V, gates, V, E)`` intermediate; gate
#: batches are chunked so each slice stays under roughly this many floats
#: (~128 MB at 8 bytes/element for the default).
_CHUNK_ELEMENTS = 1 << 24

#: Reserved coefficient rows of the correlated plan: every structurally
#: independent (or dropped) pair reads the constant row 1.0; a same-wire
#: cross-direction pair reads the constant row 0.0.
ROW_ONE = 0
ROW_ZERO = 1


@dataclass
class _OpGroup:
    """All same-level gates sharing one (truth, arity) class.

    In a single-circuit plan the slot arrays index rows of the flat
    ``(nodes, E)`` state.  The multi-circuit tensor pass
    (:mod:`repro.reliability.tensor_pass`) reuses the same structure over
    a padded ``(circuits, rows, E)`` state by setting ``circ`` — a
    per-gate circuit-index column that pairs with ``slots`` /
    ``fanin_slots`` for 3-D fancy indexing — and merges groups across
    circuits by their shared ``truth`` key.
    """

    arity: int
    #: Node slots written by this group, shape (m,).
    slots: np.ndarray
    #: Rows into the (gates, E) local-failure matrices, shape (m,).
    eps_rows: np.ndarray
    #: Fanin node slots, shape (m, k).
    fanin_slots: np.ndarray
    #: bits[v, t] = value of fanin t in error-free vector v, shape (V, k).
    bits: np.ndarray
    #: flip_mask[v, u] = 1.0 iff flip set u changes the output, (V, V)
    #: shared by the class — or (m, V, V) per-gate when the tensor pass
    #: fuses several truth classes of one arity into a single group.
    flip_mask: np.ndarray
    #: Weight vectors masked by output side: w_masked[b][v, m] is gate m's
    #: weight of vector v when truth[v] == b, else 0.
    w_masked0: np.ndarray
    w_masked1: np.ndarray
    #: Total weight per side W(b), shape (m,).
    w_side0: np.ndarray = field(default=None)
    w_side1: np.ndarray = field(default=None)
    #: The class's truth table — the cross-circuit merge key of the
    #: tensor pass (never consulted by the single-circuit kernel).
    truth: Optional[Tuple[int, ...]] = field(default=None, compare=False)
    #: Circuit index per gate, shape (m,); None in single-circuit plans.
    circ: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.w_side0 is None:
            self.w_side0 = self.w_masked0.sum(axis=0)
        if self.w_side1 is None:
            self.w_side1 = self.w_masked1.sum(axis=0)


class _LazyNodeErrors(MappingABC):
    """``{node: ErrorProbability}`` view over one sweep point's columns.

    Materializing every internal node's :class:`ErrorProbability` per
    point is the dominant cost of extracting large-circuit sweep results
    (thousands of tiny objects per point, almost all discarded — serve
    envelopes only keep ``per_output``).  This view defers construction
    to first access per node while behaving like the eager dict for
    every mapping operation the consumers use.
    """

    __slots__ = ("_p01", "_p10", "_j", "_names", "_index")

    def __init__(self, p01: np.ndarray, p10: np.ndarray, j: int,
                 names: List[str], index: Dict[str, int]):
        self._p01 = p01
        self._p10 = p10
        self._j = j
        self._names = names
        self._index = index

    def __getitem__(self, name: str) -> ErrorProbability:
        i = self._index[name]
        return ErrorProbability(p01=float(self._p01[i, self._j]),
                                p10=float(self._p10[i, self._j]))

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other):
        if isinstance(other, MappingABC):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result


@dataclass
class SweepResult:
    """A full eps sweep from the compiled (or batched scalar) pass.

    Node error state is kept in dense ``(nodes, E)`` matrices rather than
    ``E`` dicts of :class:`ErrorProbability`; :meth:`point` materializes
    the classic :class:`~repro.reliability.single_pass.SinglePassResult`
    view of one sweep point on demand.
    """

    circuit_name: str
    #: The eps specs the sweep evaluated, in order (scalars or per-gate maps).
    eps_specs: List[EpsilonSpec]
    eps10_specs: Optional[List[EpsilonSpec]]
    #: Topological node order; row i of p01/p10 is node_names[i].
    node_names: List[str]
    outputs: List[str]
    #: delta per output per eps point, shape (outputs, E).
    per_output: np.ndarray
    #: Propagated conditional error probabilities, shape (nodes, E).
    p01: np.ndarray
    p10: np.ndarray
    signal_prob: Dict[str, float]
    used_correlation: bool = False
    #: Correlation pairs per point (zero on the independence kernel; the
    #: structural pair-row count on the correlated kernel).
    correlation_pairs: Optional[np.ndarray] = None
    #: Canonical pair keys ``(a, ea, b, eb)`` of the correlated plan's
    #: expansion rows, sorted by wire ids (the deterministic order of
    #: ``ErrorCorrelationEngine.coefficient_items``); None when the sweep
    #: ran the independence kernel.
    correlation_pair_keys: Optional[List[Tuple[str, int, str, int]]] = field(
        default=None, repr=False, compare=False)
    #: Coefficient values aligned with ``correlation_pair_keys``, shape
    #: ``(pairs, E)`` — used to seed a scalar engine for any sweep point.
    correlation_coefficients: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)
    #: Time-frame count when the swept circuit is an unrolled sequential
    #: netlist (None for plain combinational sweeps).  Stamped by the
    #: analyzer/engine; :meth:`point` threads it into each materialized
    #: :class:`SinglePassResult` so per-frame views survive slicing.
    frames: Optional[int] = None

    @property
    def n_points(self) -> int:
        return len(self.eps_specs)

    def delta(self, output: Optional[str] = None) -> np.ndarray:
        """delta(eps) of one output over the sweep, shape (E,)."""
        if output is None:
            if len(self.outputs) != 1:
                raise ValueError("output name required for multi-output result")
            return self.per_output[0].copy()
        return self.per_output[self.outputs.index(output)].copy()

    def curve(self, output: Optional[str] = None) -> Dict[float, float]:
        """``{eps: delta}`` for scalar eps sweeps (the classic curve API)."""
        for spec in self.eps_specs:
            if isinstance(spec, Mapping):
                raise TypeError(
                    "curve() requires scalar eps specs; use delta() for "
                    "per-gate sweeps")
        values = self.delta(output)
        return {float(e): float(v) for e, v in zip(self.eps_specs, values)}

    def _name_index(self) -> Dict[str, int]:
        index = getattr(self, "_name_index_cache", None)
        if index is None:
            index = {name: i for i, name in enumerate(self.node_names)}
            object.__setattr__(self, "_name_index_cache", index)
        return index

    def point(self, j: int):
        """Materialize sweep point ``j`` as a :class:`SinglePassResult`.

        ``node_errors`` is a lazy per-node view (see
        :class:`_LazyNodeErrors`): indexing and iteration behave like the
        classic dict, but nothing is built until accessed.
        """
        from .single_pass import SinglePassResult
        node_errors = _LazyNodeErrors(self.p01, self.p10, j,
                                      self.node_names, self._name_index())
        per_output = {out: float(self.per_output[o, j])
                      for o, out in enumerate(self.outputs)}
        pairs = (0 if self.correlation_pairs is None
                 else int(self.correlation_pairs[j]))
        return SinglePassResult(
            per_output=per_output,
            node_errors=node_errors,
            signal_prob=dict(self.signal_prob),
            used_correlation=self.used_correlation,
            correlation_pairs=pairs,
            correlation_engine=None,
            frames=self.frames,
        )


def _lower_plain_groups(circuit: Circuit, weights: WeightData,
                        index: Mapping[str, int],
                        gate_row: Mapping[str, int],
                        gates: Sequence[str],
                        max_arity: int,
                        dtype: np.dtype = np.float64,
                        ) -> Dict[int, List["_OpGroup"]]:
    """Group ``gates`` by (level, truth, arity) and lower each class.

    Shared by the independence kernel (all gates) and the correlated kernel
    (the subset of gates whose transition math references no nontrivial
    coefficient row).  Returns ``{level: [_OpGroup, ...]}``.  ``dtype`` is
    the accumulator precision of the eventual sweep: every float array of
    the lowered groups is materialized in it so a float32 plan never
    smuggles float64 operands into the kernel.
    """
    dtype = np.dtype(dtype)
    grouped: Dict[Tuple[int, Tuple[int, ...], int], Dict] = {}
    for gate in gates:
        node = circuit.node(gate)
        k = node.arity
        if k > max_arity:
            raise CompiledPassUnsupported(
                f"gate {gate!r} has arity {k} > {max_arity}; "
                "use the scalar pass")
        truth = truth_table(node.gate_type, k)
        key = (circuit.level(gate), truth, k)
        entry = grouped.setdefault(
            key, {"slots": [], "eps_rows": [], "fanins": [],
                  "weights": []})
        entry["slots"].append(index[gate])
        entry["eps_rows"].append(gate_row[gate])
        entry["fanins"].append([index[f] for f in node.fanins])
        entry["weights"].append(
            np.asarray(weights.weights[gate], dtype=dtype))

    levels: Dict[int, List[_OpGroup]] = {}
    for (level, truth, k), entry in sorted(grouped.items()):
        bits, flip_mask, truth_arr = transition_lowering(truth, k)
        if flip_mask.dtype != dtype:
            # transition_lowering's cache holds shared float64 arrays;
            # narrow a copy rather than mutating the cached original.
            flip_mask = flip_mask.astype(dtype)
        w = np.stack(entry["weights"])              # (m, V)
        side1 = truth_arr.astype(bool)              # (V,)
        w_masked1 = np.where(side1[None, :], w, 0.0).T  # (V, m)
        w_masked0 = np.where(side1[None, :], 0.0, w).T
        levels.setdefault(level, []).append(_OpGroup(
            arity=k,
            slots=np.asarray(entry["slots"], dtype=np.intp),
            eps_rows=np.asarray(entry["eps_rows"], dtype=np.intp),
            fanin_slots=np.asarray(entry["fanins"], dtype=np.intp),
            bits=bits,
            flip_mask=flip_mask,
            w_masked0=np.ascontiguousarray(w_masked0.astype(dtype,
                                                            copy=False)),
            w_masked1=np.ascontiguousarray(w_masked1.astype(dtype,
                                                            copy=False)),
            truth=truth,
        ))
    return levels


class CompiledSinglePass:
    """A circuit + weight data lowered for vectorized eps sweeps.

    Construct once per (circuit, weights); call :meth:`run_sweep` for each
    batch of failure-probability vectors.  The plan is read-only after
    construction and contains only numpy arrays and plain containers, so it
    pickles cleanly (process-pool fan-out) and is safe to share between
    threads.

    Parameters
    ----------
    circuit:
        Circuit under analysis.
    weights:
        Precomputed weight vectors / signal probabilities.
    input_errors:
        Optional error probabilities at the primary inputs (same initial
        conditions as the scalar pass).
    max_arity:
        Refuse (with :class:`CompiledPassUnsupported`) gates wider than
        this — the per-class tensors scale as ``4**k``.
    dtype:
        Accumulator precision of the sweep (default ``float64``).  The
        lowering materializes every float array in this dtype and the
        kernel allocates its accumulators from it, so a ``float32`` plan
        runs the whole sweep in float32 — no silent float64 up-cast.
    """

    def __init__(self, circuit: Circuit,
                 weights: WeightData,
                 input_errors: Optional[Mapping[str, ErrorProbability]] = None,
                 max_arity: int = MAX_COMPILED_ARITY,
                 dtype: np.dtype = np.float64):
        circuit.validate()
        self.circuit = circuit
        self.weights = weights
        self.dtype = np.dtype(dtype)
        with trace_span("compiled_pass.compile", circuit=circuit.name):
            order = circuit.topological_order()
            self.node_names: List[str] = order
            self.index: Dict[str, int] = {n: i for i, n in enumerate(order)}
            gates = circuit.topological_gates()
            self.gate_names: List[str] = gates
            gate_row = {g: i for i, g in enumerate(gates)}
            self._gate_row = gate_row
            self.max_arity = max_arity

            #: (slot, ErrorProbability) rows seeded from input_errors.
            self.input_error_rows: List[Tuple[int, ErrorProbability]] = [
                (self.index[name], ep)
                for name, ep in dict(input_errors or {}).items()]

            levels = _lower_plain_groups(circuit, weights, self.index,
                                         gate_row, gates, max_arity,
                                         dtype=self.dtype)
            #: Topological level value of ``self.levels[i]``.
            self.level_values: List[int] = sorted(levels)
            self.levels: List[List[_OpGroup]] = [
                levels[lv] for lv in self.level_values]
            self.num_groups = sum(len(g) for g in self.levels)

            self.output_slots = np.asarray(
                [self.index[o] for o in circuit.outputs], dtype=np.intp)
            self.output_prob1 = np.asarray(
                [weights.signal_prob[o] for o in circuit.outputs],
                dtype=self.dtype)
        if obs_metrics.is_enabled():
            obs_metrics.inc("compiled_pass.compiles", circuit=circuit.name)
            obs_metrics.set_gauge("compiled_pass.groups", self.num_groups,
                                  circuit=circuit.name)

    # ------------------------------------------------------------------
    def patch_weights(self, circuit: Circuit, weights: WeightData,
                      changed_gates: Sequence[str] = (),
                      retruthed_gates: Sequence[str] = ()) -> bool:
        """Update the lowered arrays in place after a node-set-preserving edit.

        ``changed_gates`` are gates whose weight vectors changed (their
        fanin cones were edited); ``retruthed_gates`` are gates whose truth
        table itself changed (a type-only ``swap_gate``).  The former are a
        pure column rewrite; the latter move between ``(truth, arity)``
        group classes, so their entire topological level is re-lowered
        through :func:`_lower_plain_groups` — reproducing, group for group
        and float for float, what a fresh compile would build for that
        level.

        Returns ``False`` (leaving the plan untouched) when the circuit's
        node set or topological order differs from the compiled one; the
        caller then falls back to a full re-lower.
        """
        if (circuit.topological_order() != self.node_names
                or circuit.topological_gates() != self.gate_names):
            return False
        retruthed = set(retruthed_gates)
        relower_levels = {circuit.level(g) for g in retruthed}
        changed = {g for g in changed_gates
                   if circuit.level(g) not in relower_levels} - retruthed
        with trace_span("compiled_pass.patch", circuit=circuit.name,
                        changed=len(changed), relevel=len(relower_levels)):
            if relower_levels:
                level_gates = [g for g in self.gate_names
                               if circuit.level(g) in relower_levels]
                try:
                    lowered = _lower_plain_groups(
                        circuit, weights, self.index, self._gate_row,
                        level_gates, self.max_arity, dtype=self.dtype)
                except CompiledPassUnsupported:
                    return False
                for lv, groups in lowered.items():
                    self.levels[self.level_values.index(lv)] = groups
            if changed:
                targets = {self.index[g]: g for g in changed}
                for level_groups in self.levels:
                    for group in level_groups:
                        for col, slot in enumerate(group.slots):
                            gate = targets.get(int(slot))
                            if gate is None:
                                continue
                            node = circuit.node(gate)
                            side1 = np.asarray(
                                truth_table(node.gate_type, node.arity),
                                dtype=bool)
                            w = np.asarray(weights.weights[gate],
                                           dtype=self.dtype)
                            group.w_masked1[:, col] = np.where(side1, w, 0.0)
                            group.w_masked0[:, col] = np.where(side1, 0.0, w)
                            # Same per-column summation order as the fresh
                            # compile's sum(axis=0) — bit-identical totals.
                            group.w_side0[col] = group.w_masked0[:, col].sum()
                            group.w_side1[col] = group.w_masked1[:, col].sum()
            self.circuit = circuit
            self.weights = weights
            self.output_prob1 = np.asarray(
                [weights.signal_prob[o] for o in circuit.outputs],
                dtype=self.dtype)
        if obs_metrics.is_enabled():
            obs_metrics.inc("compiled_pass.patches", circuit=circuit.name)
        return True

    def _eps_matrix(self, specs: Sequence[EpsilonSpec]) -> np.ndarray:
        """Broadcast a batch of eps specs to a dense (gates, E) matrix."""
        return _eps_matrix(self.gate_names, specs, dtype=self.dtype)

    def run(self, eps: EpsilonSpec,
            eps10: Optional[EpsilonSpec] = None) -> SweepResult:
        """One-point convenience wrapper around :meth:`run_sweep`."""
        return self.run_sweep([eps], None if eps10 is None else [eps10])

    def run_sweep(self, eps_specs: Sequence[EpsilonSpec],
                  eps10_specs: Optional[Sequence[EpsilonSpec]] = None
                  ) -> SweepResult:
        """Evaluate the propagation pass for every eps point at once.

        ``eps_specs`` is a sequence of failure-probability vectors (scalars
        or per-gate maps); ``eps10_specs``, when given, must have the same
        length and makes every gate's local channel asymmetric exactly as
        in :meth:`SinglePassAnalyzer.run`.
        """
        specs, eps10_list = _validated_specs(self.circuit, eps_specs,
                                             eps10_specs)
        n_nodes = len(self.node_names)
        n_points = len(specs)
        with trace_span("compiled_pass.run_sweep", circuit=self.circuit.name,
                        points=n_points):
            e01 = self._eps_matrix(specs)
            e10 = e01 if eps10_list is None else self._eps_matrix(eps10_list)
            p01 = np.zeros((n_nodes, n_points), dtype=self.dtype)
            p10 = np.zeros((n_nodes, n_points), dtype=self.dtype)
            for slot, ep in self.input_error_rows:
                p01[slot] = ep.p01
                p10[slot] = ep.p10
            for level_groups in self.levels:
                for group in level_groups:
                    _eval_group(group, p01, p10,
                                e01[group.eps_rows], e10[group.eps_rows])
            per_output = ((1.0 - self.output_prob1)[:, None]
                          * p01[self.output_slots]
                          + self.output_prob1[:, None]
                          * p10[self.output_slots])
        if obs_metrics.is_enabled():
            labels = {"circuit": self.circuit.name}
            obs_metrics.inc("compiled_pass.sweeps", **labels)
            obs_metrics.inc("compiled_pass.points", n_points, **labels)
            obs_metrics.inc("compiled_pass.gate_evals",
                            len(self.gate_names) * n_points, **labels)
        return SweepResult(
            circuit_name=self.circuit.name,
            eps_specs=specs,
            eps10_specs=eps10_list,
            node_names=list(self.node_names),
            outputs=list(self.circuit.outputs),
            per_output=per_output,
            p01=p01,
            p10=p10,
            signal_prob=dict(self.weights.signal_prob),
            used_correlation=False,
            correlation_pairs=np.zeros(n_points, dtype=np.int64),
        )


def _eval_group(group: _OpGroup, p01: np.ndarray, p10: np.ndarray,
                e01: np.ndarray, e10: np.ndarray) -> None:
    """Evaluate one (truth, arity) gate batch over the eps axis.

    Mutates ``p01`` / ``p10`` in place at ``group.slots`` (with
    ``group.circ`` selecting the leading circuit axis of a tensor-pass
    state).  ``e01`` / ``e10`` are the group's local failure
    probabilities, shape (m, E).
    """
    if group.circ is None:
        f01 = p01[group.fanin_slots]        # (m, k, E)
        f10 = p10[group.fanin_slots]
    else:
        f01 = p01[group.circ[:, None], group.fanin_slots]
        f10 = p10[group.circ[:, None], group.fanin_slots]
    n_vec = group.bits.shape[0]             # V = 2**k
    m, k, n_eps = f01.shape
    dtype = p01.dtype

    pw0 = np.empty((m, n_eps), dtype=dtype)
    pw1 = np.empty((m, n_eps), dtype=dtype)
    # Chunk the gate batch so the (V, chunk, V, E) intermediate stays small.
    rows = max(1, _CHUNK_ELEMENTS // max(1, n_vec * n_vec * n_eps))
    for start in range(0, m, rows):
        sl = slice(start, min(m, start + rows))
        # Per-fanin flip probability under each error-free vector v: the
        # scalar pass's probs[t][events[t]] — p01 where fanin t reads 0,
        # p10 where it reads 1.  Shape (V, mc, k, E).
        pv = np.where(group.bits[:, None, :, None], f10[None, sl],
                      f01[None, sl])
        # Distribution over flip sets u by successive doubling: after step
        # t, the first 2**(t+1) lanes of axis 2 enumerate all flip subsets
        # of fanins 0..t.  The doubling runs inside one preallocated
        # (V, mc, V, E) buffer — lanes [w, 2w) take old*p, then [0, w)
        # scales in place by (1-p): the same products, no concatenates.
        mc = pv.shape[1]
        r = np.empty((n_vec, mc, n_vec, n_eps), dtype=dtype)
        r[:, :, 0, :] = 1.0
        width = 1
        for t in range(k):
            pt = pv[:, :, t, None, :]
            old = r[:, :, :width]
            np.multiply(old, pt, out=r[:, :, width:2 * width])
            old *= 1.0 - pt
            width *= 2
        # Total probability that fanin errors flip the output, per v —
        # with a per-gate mask when the group fuses several truth classes.
        if group.flip_mask.ndim == 3:
            flip = np.einsum("vmue,mvu->vme", r, group.flip_mask[sl])
        else:
            flip = np.einsum("vmue,vu->vme", r, group.flip_mask)
        np.minimum(flip, 1.0, out=flip)
        # Weighted components PW(b) = sum_v W[v] * flip[v] over side b.
        pw0[sl] = np.einsum("vm,vme->me", group.w_masked0[:, sl], flip)
        pw1[sl] = np.einsum("vm,vme->me", group.w_masked1[:, sl], flip)

    # Fold in the local failure channel: item (iii) of the paper's Sec. 4,
    # identical to combine_with_local_failure but over the whole batch.
    w0 = group.w_side0[:, None]
    w1 = group.w_side1[:, None]
    r0 = np.divide(pw0, w0, out=np.zeros_like(pw0), where=w0 > 0.0)
    r1 = np.divide(pw1, w1, out=np.zeros_like(pw1), where=w1 > 0.0)
    np.clip(r0, 0.0, 1.0, out=r0)
    np.clip(r1, 0.0, 1.0, out=r1)
    out01 = r0 * (1.0 - e10) + (1.0 - r0) * e01
    out10 = r1 * (1.0 - e01) + (1.0 - r1) * e10
    if group.circ is None:
        p01[group.slots] = out01
        p10[group.slots] = out10
    else:
        p01[group.circ, group.slots] = out01
        p10[group.circ, group.slots] = out10


# ======================================================================
# Correlated kernel (Sec. 4.1)
# ======================================================================

def _eps_matrix(gate_names: Sequence[str],
                specs: Sequence[EpsilonSpec],
                dtype: np.dtype = np.float64) -> np.ndarray:
    """Broadcast a batch of eps specs to a dense (gates, E) matrix."""
    mat = np.empty((len(gate_names), len(specs)), dtype=dtype)
    for j, spec in enumerate(specs):
        if isinstance(spec, Mapping):
            mat[:, j] = [epsilon_of(spec, g) for g in gate_names]
        else:
            mat[:, j] = float(spec)
    return mat


#: Shared sweep-argument validation of both kernels (canonical home:
#: :func:`repro.spec.validate_sweep_specs`).
_validated_specs = validate_sweep_specs


@dataclass
class _CorrGroup:
    """Same-shape correlated programs of one level and wave, run as one op.

    A member is either a correlation-corrected gate (it writes its node's
    ``p01``/``p10`` state) or the Fig. 4 expansion of one coefficient row
    (it writes that row of ``C``).  Members share ``shape`` — the lowered
    op skeleton — and differ only in the operands it names, so the kernel
    gathers every member's operands into ``(R, E)`` arrays and runs the
    skeleton once for all ``R`` members.

    ``shape`` is ``("gate", has0, has1, vprogs)`` or
    ``("expand", ea, has_side, vprogs)``, where ``has*`` records a nonzero
    side weight total and ``vprogs`` holds one ``(b, fetch, perts)`` per
    active error-free input vector, in ascending-vector order (the scalar
    accumulation order):

    * ``fetch`` — ``(position, state operand)`` reads;
    * ``perts`` — ``(flip_ops, pair_ops, nf_ops)`` per output-flipping
      perturbation: flip positions with their conditioning row operand
      (-1 when none), the capped pairwise row operands among the flips,
      and the non-flipping positions with their row-operand scale chains.

    Coefficient rows equal to the constant 1.0 are dropped from the
    skeleton (multiplying by an exact 1.0 is the identity, and every cap
    they could trigger is already implied by the running invariants).
    """

    shape: tuple
    #: Node slot (gate) or coefficient row (expansion) written, shape (R,).
    targets: np.ndarray
    #: Rows into the (gates, E) local-failure matrices, shape (R,).
    eps_rows: np.ndarray
    #: State reads as flat indices ``event * nodes + slot`` into the
    #: ``(2 * nodes, E)`` state, shape (n_s, R); an expansion's last two
    #: are the marginal of ``a`` and the probability of ``b``.
    state: np.ndarray
    #: Coefficient rows read, shape (n_c, R).
    rows: np.ndarray
    #: Per-vector weights followed by the side totals (gate: W(0), W(1);
    #: expansion: W(ea)), shape (n_w, R, 1).
    weights: np.ndarray


def _group_flip(fetch: tuple, perts: tuple, S: np.ndarray,
                Cg: np.ndarray) -> np.ndarray:
    """Total output-flip probability of one input vector, shape (R, E).

    Elementwise replica of the scalar ``_correlated_transition`` summed
    over the vector's perturbations: identical operation order, with
    ``np.minimum`` standing in for the scalar clamps and caps, so the two
    paths agree to float rounding.  ``S`` / ``Cg`` are the group's
    gathered state and coefficient operands, shape (n, R, E).
    """
    p = {t: S[s] for t, s in fetch}
    total = None
    for flip_ops, pair_ops, nf_ops in perts:
        term = None
        if pair_ops:
            min_flip = None
            for t, c in flip_ops:
                pt = p[t]
                if c >= 0:
                    pt = np.minimum(pt * Cg[c], 1.0)
                if term is None:
                    term = pt
                    min_flip = pt
                else:
                    term = term * pt
                    min_flip = np.minimum(min_flip, pt)
            for c in pair_ops:
                term = np.minimum(term * Cg[c], 1e12)
            # Feasibility: the joint of all flips cannot exceed any single
            # flip probability (same cap as the scalar pass).
            term = np.minimum(term, min_flip)
        else:
            for t, c in flip_ops:
                pt = p[t]
                if c >= 0:
                    pt = np.minimum(pt * Cg[c], 1.0)
                term = pt if term is None else term * pt
        for t, cs in nf_ops:
            pt = p[t]
            if cs:
                scale = Cg[cs[0]]
                for c in cs[1:]:
                    scale = np.minimum(scale * Cg[c], 1e12)
                pt = np.minimum(pt * scale, 1.0)
            term = term * (1.0 - pt)
        total = term if total is None else total + term
    return total


def _eval_corr_group(g: _CorrGroup, P: np.ndarray, C: np.ndarray,
                     e01: np.ndarray, e10: np.ndarray) -> None:
    """Run one group's skeleton over all its members and scatter results.

    ``P`` is the ``(2, nodes, E)`` state (``P[0]`` = p01, ``P[1]`` =
    p10).  Members never read each other's outputs (the schedule puts
    dependent rows in later waves) and no op reduces across members or
    eps columns, so each element sees the scalar op sequence.  Members are
    chunked so the gathered operands stay under ``_CHUNK_ELEMENTS``.
    """
    n_eps = P.shape[-1]
    flat = P.reshape(-1, n_eps)
    kind, flag_a, flag_b, vprogs = g.shape
    n_members = g.targets.shape[0]
    step = max(1, _CHUNK_ELEMENTS
               // max(1, (g.state.shape[0] + g.rows.shape[0]) * n_eps))
    for start in range(0, n_members, step):
        sl = slice(start, start + step)
        S = flat[g.state[:, sl]]                # (n_s, R, E)
        Cg = C[g.rows[:, sl]]                   # (n_c, R, E)
        W = g.weights[:, sl]                    # (n_w, R, 1)
        e01g = e01[g.eps_rows[sl]]
        e10g = e10[g.eps_rows[sl]]
        targets = g.targets[sl]
        pw = [None, None]
        for i, (b, fetch, perts) in enumerate(vprogs):
            contrib = W[i] * np.minimum(1.0, _group_flip(fetch, perts, S, Cg))
            pw[b] = contrib if pw[b] is None else pw[b] + contrib
        if kind == "gate":
            if pw[0] is not None and flag_a:
                r0 = np.minimum(pw[0] / W[-2], 1.0)
                P[0][targets] = r0 * (1.0 - e10g) + (1.0 - r0) * e01g
            else:
                P[0][targets] = e01g
            if pw[1] is not None and flag_b:
                r1 = np.minimum(pw[1] / W[-1], 1.0)
                P[1][targets] = r1 * (1.0 - e01g) + (1.0 - r1) * e10g
            else:
                P[1][targets] = e10g
            continue
        ea = flag_a
        local = e01g if ea == 0 else e10g
        if pw[ea] is not None and flag_b:
            r = np.minimum(pw[ea] / W[-1], 1.0)
            conditional = local + r * ((1.0 - e01g) - e10g)
            conditional = np.minimum(np.maximum(conditional, 0.0), 1.0)
        else:
            conditional = local
        marginal = S[-2]
        p_b = S[-1]
        # Degenerate lanes (zero/denormal marginals) read 1.0 exactly as the
        # scalar engine's early returns; `where` keeps their divisions safe.
        valid = (marginal > 1e-300) & (p_b > 0.0)
        coef = conditional / np.where(valid, marginal, 1.0)
        cap = 1.0 / np.where(valid, np.maximum(marginal, p_b), 1.0)
        coef = np.minimum(coef, cap)
        coef = np.maximum(0.0, np.minimum(coef, 1e9))
        C[targets] = np.where(valid, coef, 1.0)


def _group_arrays(shape: tuple, members: List[tuple]) -> _CorrGroup:
    """Stack ``(target, eps_row, state, rows, weights)`` members."""
    targets, eps_rows, state, rows, weights = zip(*members)
    return _CorrGroup(
        shape=shape,
        targets=np.asarray(targets, dtype=np.intp),
        eps_rows=np.asarray(eps_rows, dtype=np.intp),
        state=np.ascontiguousarray(np.asarray(state, dtype=np.intp).T),
        rows=np.ascontiguousarray(np.asarray(rows, dtype=np.intp).T),
        weights=np.ascontiguousarray(
            np.asarray(weights, dtype=np.float64).T[:, :, None]),
    )


class CompiledCorrelatedPass:
    """Circuit + weights lowered for vectorized correlation-corrected sweeps.

    The Sec. 4.1 engine's state — one lazily-memoized coefficient per
    ``(wire, event, wire, event)`` pair — is lowered at plan time into an
    integer-indexed row table; :meth:`run_sweep` then evaluates the entire
    corrected pass, coefficients included, with a trailing eps axis.

    Plan construction discovers the structural closure of the Fig. 4
    recursion: building each gate's transition program queries the
    coefficient rows it needs, and each new expansion row is queued until
    its own program is built.  The recursion is well-founded because a
    canonical pair always expands its topologically *later* wire through
    its gate, so every referenced pair is strictly earlier — which also
    makes the discovered set (and the coefficient values) independent of
    query order, the contract shared with the scalar engine via
    :class:`~repro.probability.correlation.PairStructure`.

    Parameters mirror the analyzer's correlation knobs: ``max_pairs``
    bounds the expansion-row count (beyond it the plan refuses with
    :class:`CompiledPassUnsupported` and the analyzer falls back to the
    scalar engine's per-query budget degradation), ``max_level_gap`` is
    the Sec. 4.1 locality cap, and ``cache_dir`` persists the discovered
    pair table across processes (see
    :func:`repro.probability.weight_cache.store_correlation_plan`).
    """

    def __init__(self, circuit: Circuit,
                 weights: WeightData,
                 input_errors: Optional[Mapping[str, ErrorProbability]] = None,
                 max_arity: int = MAX_COMPILED_ARITY,
                 max_pairs: int = 1_000_000,
                 max_level_gap: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 structure: Optional[PairStructure] = None):
        circuit.validate()
        self.circuit = circuit
        self.weights = weights
        self.max_pairs = max_pairs
        self.max_level_gap = max_level_gap
        with trace_span("compiled_pass.compile_correlated",
                        circuit=circuit.name):
            self._compile(dict(input_errors or {}), max_arity, cache_dir,
                          structure)
        if obs_metrics.is_enabled():
            obs_metrics.inc("compiled_pass.correlated_compiles",
                            circuit=circuit.name)
            obs_metrics.set_gauge("compiled_pass.coefficient_rows",
                                  self.n_rows, circuit=circuit.name)
            obs_metrics.set_gauge("compiled_pass.correlated_groups",
                                  self.num_corr_groups, circuit=circuit.name)

    # -- plan construction ---------------------------------------------
    def _compile(self, input_errors, max_arity, cache_dir,
                 structure=None) -> None:
        circuit = self.circuit
        order = circuit.topological_order()
        self.node_names: List[str] = order
        self.index: Dict[str, int] = {n: i for i, n in enumerate(order)}
        gates = circuit.topological_gates()
        self.gate_names: List[str] = gates
        self._gate_row = {g: i for i, g in enumerate(gates)}
        self.input_error_rows: List[Tuple[int, ErrorProbability]] = [
            (self.index[name], ep) for name, ep in input_errors.items()]
        # A caller holding a still-valid PairStructure (same circuit
        # structure, same level-gap cap — e.g. an incremental workspace
        # re-lowering after a type-only swap) can pass it in to skip the
        # support-bitset recomputation.
        self.structure = (structure if structure is not None
                          else PairStructure(
                              circuit, max_level_gap=self.max_level_gap))

        # Wires whose error probability is identically zero at every eps
        # point: constants and noise-free primary inputs.  Their pruning in
        # the lowering mirrors the scalar pass's zero-probability exits.
        self._error_free = set()
        for name in order:
            if circuit.node(name).gate_type.is_logic:
                continue
            ep = input_errors.get(name)
            if ep is None or (ep.p01 == 0.0 and ep.p10 == 0.0):
                self._error_free.add(name)

        self._same_index: Dict[Tuple[str, int], int] = {}
        self._same_rows: List[Tuple[int, int, int, str]] = []
        self._row_index: Dict[Tuple[str, int, str, int], int] = {}
        self._pending = deque()
        self.n_rows = 2  # rows 0/1 are the 1.0 / 0.0 constants

        cached_plan = None
        if cache_dir is not None:
            cached_plan = load_correlation_plan(
                cache_dir, circuit, self.max_level_gap, self.max_pairs)
        if cached_plan is not None and cached_plan.get("unsupported"):
            raise CompiledPassUnsupported(
                f"correlated pair budget ({self.max_pairs}) exceeded for "
                f"{circuit.name!r} (cached plan)")
        if cached_plan is not None:
            # Seed the row index so discovery short-circuits its structural
            # classification; the closure below still builds every program.
            for a_slot, ea, b_slot, eb in cached_plan["pairs"]:
                key = (order[a_slot], int(ea), order[b_slot], int(eb))
                self._row_index[key] = self.n_rows
                self._pending.append((self.n_rows, key))
                self.n_rows += 1

        st = self.structure
        # Corrected-gate group members, keyed (level, shape).
        gate_members: Dict[tuple, List[tuple]] = {}
        try:
            plain_gates: List[str] = []
            for gate in gates:
                node = circuit.node(gate)
                if node.arity > max_arity:
                    raise CompiledPassUnsupported(
                        f"gate {gate!r} has arity {node.arity} > {max_arity};"
                        " use the scalar pass")
                prog = self._gate_program(gate, node)
                if prog is None:
                    plain_gates.append(gate)
                    continue
                shape, state, rows, wts = prog
                gate_members.setdefault((st.level[gate], shape), []).append(
                    (self.index[gate], self._gate_row[gate], state, rows,
                     wts))
            expansions: List[tuple] = []
            while self._pending:
                row, (a, ea, b, eb) = self._pending.popleft()
                expansions.append((self.index[a], max(st.level[a],
                                                      st.level[b]),
                                   row, self._gate_row[a],
                                   self._expand_program(a, ea, b, eb)))
        except CompiledPassUnsupported:
            if cache_dir is not None and cached_plan is None:
                store_correlation_plan(cache_dir, circuit,
                                       self.max_level_gap, self.max_pairs,
                                       unsupported=True)
            raise
        if cache_dir is not None and cached_plan is None:
            store_correlation_plan(
                cache_dir, circuit, self.max_level_gap, self.max_pairs,
                pairs=[(self.index[a], ea, self.index[b], eb)
                       for (a, ea, b, eb) in sorted(self._row_index)])

        # -- level schedule --------------------------------------------
        # Per level: plain groups, then corrected-gate groups (state of
        # level L is final after these), then the level's same-wire rows
        # as one batch (state reads only), then the expansion waves.  An
        # expansion row reads rows of lower levels, or rows of its own
        # level whose canonical later wire is strictly topologically
        # earlier; visiting rows in that wire order gives each row its
        # wave (one past the deepest same-level row it reads) in one pass.
        n_nodes = len(order)
        plain_levels = _lower_plain_groups(
            circuit, self.weights, self.index, self._gate_row,
            plain_gates, max_arity)
        gate_groups: Dict[int, List[_CorrGroup]] = {}
        for (lv, shape), members in gate_members.items():
            gate_groups.setdefault(lv, []).append(
                _group_arrays(shape, members))
        same_by_level: Dict[int, Tuple[List[int], List[int]]] = {}
        for row, slot, ev, wire in self._same_rows:
            rows, flat = same_by_level.setdefault(st.level[wire], ([], []))
            rows.append(row)
            flat.append(ev * n_nodes + slot)
        expand_members: Dict[tuple, List[tuple]] = {}
        wave_of: Dict[int, Tuple[int, int]] = {}
        expansions.sort(key=lambda x: x[0])
        for _, lv, row, eps_row, (shape, state, rows, wts) in expansions:
            wave = 0
            for r in rows:
                seen = wave_of.get(r)
                if seen is not None and seen[0] == lv and seen[1] >= wave:
                    wave = seen[1] + 1
            wave_of[row] = (lv, wave)
            expand_members.setdefault((lv, wave, shape), []).append(
                (row, eps_row, state, rows, wts))
        waves: Dict[int, List[List[_CorrGroup]]] = {}
        for (lv, wave, shape), members in expand_members.items():
            level_waves = waves.setdefault(lv, [])
            while len(level_waves) <= wave:
                level_waves.append([])
            level_waves[wave].append(_group_arrays(shape, members))
        self._schedule: List[tuple] = []
        for lv in sorted(set(plain_levels) | set(gate_groups)
                         | set(same_by_level) | set(waves)):
            same = same_by_level.get(lv)
            self._schedule.append((
                tuple(plain_levels.get(lv, ())),
                tuple(gate_groups.get(lv, ())),
                None if same is None else (np.asarray(same[0], dtype=np.intp),
                                           np.asarray(same[1], dtype=np.intp)),
                tuple(tuple(groups) for groups in waves.get(lv, ())),
            ))
        #: Batched correlated ops per sweep: corrected-gate groups,
        #: same-wire level batches and expansion groups.
        self.num_corr_groups = (sum(map(len, gate_groups.values()))
                                + len(same_by_level) + len(expand_members))

        self.n_pair_rows = len(self._row_index)
        items = sorted(self._row_index.items())
        #: Canonical pair keys, sorted by wire ids (the deterministic
        #: iteration contract of ErrorCorrelationEngine.coefficient_items).
        self.pair_keys: List[Tuple[str, int, str, int]] = [
            key for key, _ in items]
        self._pair_rows_order = np.asarray([row for _, row in items],
                                           dtype=np.intp)

        self.output_slots = np.asarray(
            [self.index[o] for o in circuit.outputs], dtype=np.intp)
        self.output_prob1 = np.asarray(
            [self.weights.signal_prob[o] for o in circuit.outputs],
            dtype=np.float64)

    # ------------------------------------------------------------------
    def _row_of(self, a: str, ea: int, b: str, eb: int) -> int:
        """Coefficient row index for the joint (a: ea, b: eb) events.

        Mirrors the scalar engine's classification in the same order:
        same-wire, disjoint supports, canonicalization, level gap; anything
        left is an expansion row, created (and queued for program
        construction) on first sight.
        """
        if a == b:
            if ea != eb:
                return ROW_ZERO
            skey = (a, ea)
            row = self._same_index.get(skey)
            if row is None:
                row = self.n_rows
                self.n_rows += 1
                self._same_index[skey] = row
                self._same_rows.append((row, self.index[a], ea, a))
            return row
        st = self.structure
        key = st.canonical(a, ea, b, eb)
        row = self._row_index.get(key)
        if row is not None:
            return row
        if not st.overlaps(a, b):
            return ROW_ONE
        if st.gapped(key[0], key[2]):
            return ROW_ONE
        if not self.circuit.node(key[0]).gate_type.is_logic:
            return ROW_ONE  # cannot happen for a canonical later wire
        if len(self._row_index) >= self.max_pairs:
            raise CompiledPassUnsupported(
                f"correlated pair budget ({self.max_pairs}) exceeded while "
                f"lowering {self.circuit.name!r}; use the scalar pass")
        row = self.n_rows
        self.n_rows += 1
        self._row_index[key] = row
        self._pending.append((row, key))
        return row

    def _instance_masks(self, node, w) -> Tuple[int, int]:
        """(active input vectors, error-free fanin positions) bitmasks."""
        active = 0
        for v, wv in enumerate(w):
            if wv != 0.0:
                active |= 1 << v
        errfree = 0
        for t, f in enumerate(node.fanins):
            if f in self._error_free:
                errfree |= 1 << t
        return active, errfree

    def _vector_program(self, fanins, events, perts,
                        cond: Optional[Tuple[str, int]],
                        state: List[int], rows: List[int]):
        """Lower one input vector's perturbations onto operand lists.

        Appends the vector's state reads to ``state`` (flat ``event *
        nodes + slot`` indices) and its coefficient-row reads to ``rows``,
        and returns ``(fetch, pert_progs)`` naming them by list position
        (see :class:`_CorrGroup`).  Operands are numbered by fanin
        position, never by row value, so two vectors with the same
        lowering and the same constant-1.0 pattern get the same skeleton.
        A row read is kept iff it differs from the constant 1.0 row, so a
        gate whose vectors leave ``rows`` empty runs on the batched
        independence kernel instead.
        """
        pair_memo: Dict[Tuple[int, int], int] = {}

        def operand(r: int) -> int:
            if r == ROW_ONE:
                return -1
            rows.append(r)
            return len(rows) - 1

        def prow(i: int, j: int) -> int:
            pkey = (i, j) if i < j else (j, i)
            c = pair_memo.get(pkey)
            if c is None:
                c = operand(self._row_of(fanins[pkey[0]], events[pkey[0]],
                                         fanins[pkey[1]], events[pkey[1]]))
                pair_memo[pkey] = c
            return c

        cond_memo: Dict[int, int] = {}

        def crow(t: int) -> int:
            c = cond_memo.get(t)
            if c is None:
                c = operand(self._row_of(fanins[t], events[t],
                                         cond[0], cond[1]))
                cond_memo[t] = c
            return c

        pert_progs = []
        positions = set()
        for flips, nonflips in perts:
            flip_ops = []
            for t in flips:
                flip_ops.append((t, -1 if cond is None else crow(t)))
                positions.add(t)
            pair_ops = []
            n = len(flips)
            for ai in range(n):
                for bi in range(ai + 1, n):
                    c = prow(flips[ai], flips[bi])
                    if c >= 0:
                        pair_ops.append(c)
            nf_ops = []
            for t in nonflips:
                chain = []
                if cond is not None:
                    c = crow(t)
                    if c >= 0:
                        chain.append(c)
                for u in flips:
                    c = prow(t, u)
                    if c >= 0:
                        chain.append(c)
                nf_ops.append((t, tuple(chain)))
                positions.add(t)
            pert_progs.append((tuple(flip_ops), tuple(pair_ops),
                               tuple(nf_ops)))
        n_nodes = len(self.node_names)
        fetch = []
        for t in sorted(positions):
            fetch.append((t, len(state)))
            state.append((n_nodes if events[t] == EVENT_1TO0 else 0)
                         + self.index[fanins[t]])
        return tuple(fetch), tuple(pert_progs)

    def _lower_vectors(self, node, w, side: Optional[int],
                       cond: Optional[Tuple[str, int]]):
        """Lower the active vectors of one gate instance (only those with
        error-free output ``side`` when given).

        Returns ``(vprogs, state, rows, weights)``: the skeleton entries
        of :class:`_CorrGroup` and the operand lists they index.
        """
        truth = truth_table(node.gate_type, node.arity)
        active, errfree = self._instance_masks(node, w)
        lowered = correlated_transition_lowering(truth, node.arity, active,
                                                 errfree)
        state: List[int] = []
        rows: List[int] = []
        vprogs = []
        weights = []
        for v, b, events, perts in lowered:
            if side is not None and b != side:
                continue
            fetch, pert_progs = self._vector_program(
                node.fanins, events, perts, cond, state, rows)
            vprogs.append((b, fetch, pert_progs))
            weights.append(w[v])
        return tuple(vprogs), state, rows, weights

    def _gate_program(self, gate: str, node) -> Optional[tuple]:
        """Lower one gate's correlated transition to ``(shape, state, rows,
        weights)``; None when it references no nontrivial row."""
        w = [float(x) for x in self.weights.weights[gate]]
        vprogs, state, rows, weights = self._lower_vectors(node, w, None,
                                                           None)
        if not rows:
            return None
        truth = truth_table(node.gate_type, node.arity)
        w0 = 0.0
        w1 = 0.0
        for v, wv in enumerate(w):
            if truth[v]:
                w1 += wv
            else:
                w0 += wv
        weights += [w0, w1]
        return ("gate", w0 > 0.0, w1 > 0.0, vprogs), state, rows, weights

    def _expand_program(self, a: str, ea: int, b: str, eb: int) -> tuple:
        """Lower coefficient row ``(a, ea | b, eb)``'s Fig. 4 expansion to
        ``(shape, state, rows, weights)``: the conditioned transition
        programs of the side-``ea`` input vectors of ``a``'s gate."""
        node = self.circuit.node(a)
        truth = truth_table(node.gate_type, node.arity)
        w = [float(x) for x in self.weights.weights[a]]
        side = 0 if ea == 0 else 1
        w_side = 0.0
        for v, wv in enumerate(w):
            if truth[v] == side:
                w_side += wv
        vprogs, state, rows, weights = self._lower_vectors(node, w, side,
                                                           (b, eb))
        n_nodes = len(self.node_names)
        state += [ea * n_nodes + self.index[a], eb * n_nodes + self.index[b]]
        weights.append(w_side)
        return ("expand", side, w_side > 0.0, vprogs), state, rows, weights

    # -- execution ------------------------------------------------------
    def run(self, eps: EpsilonSpec,
            eps10: Optional[EpsilonSpec] = None) -> SweepResult:
        """One-point convenience wrapper around :meth:`run_sweep`."""
        return self.run_sweep([eps], None if eps10 is None else [eps10])

    def run_sweep(self, eps_specs: Sequence[EpsilonSpec],
                  eps10_specs: Optional[Sequence[EpsilonSpec]] = None
                  ) -> SweepResult:
        """Evaluate the corrected pass for every eps point at once."""
        specs, eps10_list = _validated_specs(self.circuit, eps_specs,
                                             eps10_specs)
        n_nodes = len(self.node_names)
        n_points = len(specs)
        with trace_span("compiled_pass.run_sweep_correlated",
                        circuit=self.circuit.name, points=n_points,
                        groups=self.num_corr_groups):
            # A 1-point sweep runs as two identical columns: einsum sums a
            # size-1 trailing axis in another order, and column j of any
            # sweep must equal the 1-point run at its eps exactly.
            width = max(n_points, 2)
            e01 = _eps_matrix(self.gate_names, specs * (width // n_points))
            e10 = (e01 if eps10_list is None
                   else _eps_matrix(self.gate_names,
                                    eps10_list * (width // n_points)))
            P = np.zeros((2, n_nodes, width), dtype=np.float64)
            p01, p10 = P
            flat = P.reshape(2 * n_nodes, width)
            for slot, ep in self.input_error_rows:
                p01[slot] = ep.p01
                p10[slot] = ep.p10
            C = np.empty((self.n_rows, width), dtype=np.float64)
            C[ROW_ONE] = 1.0
            C[ROW_ZERO] = 0.0
            for plain_groups, gate_groups, same, waves in self._schedule:
                for group in plain_groups:
                    _eval_group(group, p01, p10,
                                e01[group.eps_rows], e10[group.eps_rows])
                for g in gate_groups:
                    _eval_corr_group(g, P, C, e01, e10)
                if same is not None:
                    rows, state = same
                    pval = flat[state]
                    big = pval > 1e-9
                    C[rows] = np.where(
                        big,
                        np.minimum(1.0 / np.where(big, pval, 1.0), 1e9),
                        np.where(pval > 0.0, 1e9, 1.0))
                for wave in waves:
                    for g in wave:
                        _eval_corr_group(g, P, C, e01, e10)
            if width != n_points:
                p01, p10 = P[:, :, :n_points].copy()
                C = C[:, :n_points]
            per_output = ((1.0 - self.output_prob1)[:, None]
                          * p01[self.output_slots]
                          + self.output_prob1[:, None]
                          * p10[self.output_slots])
        if obs_metrics.is_enabled():
            labels = {"circuit": self.circuit.name}
            obs_metrics.inc("compiled_pass.correlated_sweeps", **labels)
            obs_metrics.inc("compiled_pass.points", n_points, **labels)
            obs_metrics.inc("compiled_pass.gate_evals",
                            len(self.gate_names) * n_points, **labels)
            obs_metrics.inc("correlation.pairs_tracked",
                            self.n_pair_rows * n_points, **labels)
        coefficients = (C[self._pair_rows_order] if self.n_pair_rows
                        else np.empty((0, n_points), dtype=np.float64))
        return SweepResult(
            circuit_name=self.circuit.name,
            eps_specs=specs,
            eps10_specs=eps10_list,
            node_names=list(self.node_names),
            outputs=list(self.circuit.outputs),
            per_output=per_output,
            p01=p01,
            p10=p10,
            signal_prob=dict(self.weights.signal_prob),
            used_correlation=True,
            correlation_pairs=np.full(n_points, self.n_pair_rows,
                                      dtype=np.int64),
            correlation_pair_keys=list(self.pair_keys),
            correlation_coefficients=coefficients,
        )
