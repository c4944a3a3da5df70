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

* node error state lives in one dense ``(2, nodes + 1, E)`` array ``P``
  — ``P01`` and ``P10`` stacked, indexed by topological slot, plus one
  always-zero row — where ``E`` is the number of eps points — the
  *trailing eps axis*;
* one lowering (:func:`_lower_plain_groups`) groups the gates by
  topological level and, within a level, by arity: each group carries
  its fanin slot matrix, its stacked weight vectors and a per-gate flip
  mask from :func:`repro.probability.error_propagation.
  transition_lowering`, so gates of every truth table share one group.
  Arity-1 gates become 2-input gates reading the zero row; gates wider
  than six inputs group per ``(truth table, arity)`` with a shared mask;
* evaluating a group is a handful of vectorized tensor ops over
  ``(2**k, gates, 2**k, E)`` — every gate of the group, every error-free
  vector, every perturbation, and every eps point at once.

:meth:`CompiledSinglePass.run_sweep` therefore computes the entire
delta(eps) curve — including asymmetric ``eps10`` channels and per-gate
eps maps, broadcast to ``(gates, E)`` — in one pass instead of ``E``
Python passes.  The sweep is a :class:`~repro.reliability.tensor_pass.
TensorBatch` of one: both run :func:`_run_packed` over plans' row blocks
packed back to back.  That kernel implements the plain Sec. 4
independence algorithm; parity with the scalar pass is pinned to
<= 1e-12 by ``tests/test_compiled_pass.py``.

:class:`CompiledCorrelatedPass` extends the same lowering to the Sec. 4.1
**correlation-corrected** pass.  On top of the plain plan it compiles the
:class:`~repro.probability.correlation.ErrorCorrelationEngine`'s lazy
per-pair coefficient state into an integer-indexed *coefficient row table*:

* structural pair discovery (a closure over the Fig. 4 expansion, using
  the same :class:`~repro.probability.correlation.PairStructure`
  classification and canonical pair ordering as the scalar engine) assigns
  every reachable ``(wire, event, wire, event)`` pair a row index —
  batched: each frontier of the closure is classified as integer arrays,
  and each lowering template's programs are built once per batch;
* at run time the rows live in one dense ``(rows, E)`` matrix ``C`` —
  same-wire rows read a wire's propagated state, expansion rows run a
  pre-lowered Fig. 4 program — evaluated in a level schedule that
  guarantees every child row and every fanin state is final before use;
* gates whose transitions reference only the constant-1 row run as
  plain groups (the state keeps their zero row); the remaining gates and
  all expansion rows run in dependency *steps* — one level's corrected gates,
  or one *wave* (dependency depth) of its expansion rows.  A step gathers
  all its members' operands at once, evaluates each perturbation *form*
  (the op sequence of one term of the scalar ``_correlated_transition``,
  clamp for clamp) once over every term of that form, reduces the terms
  in rank-ordered rounds that keep the scalar addition order, and
  finishes all members in one vectorized tail, so the kernel's dispatch
  cost scales with steps x forms, not with rows or program shapes.

:class:`~repro.reliability.single_pass.SinglePassAnalyzer` dispatches to
one of the two kernels in **all** modes, keeping the scalar engine as a
parity oracle (``compiled="off"``) and as the fallback when a plan cannot
be built (oversized arity, pair budget exceeded).  Correlated parity is
pinned to <= 1e-10 on the full circuit catalog.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, structural_hash, truth_table
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..probability.correlation import PairStructure
from ..probability.error_propagation import (
    ErrorProbability,
    correlated_transition_lowering,
    transition_lowering,
)
from ..probability.weights import WeightData
from ..spec import EpsilonSpec, epsilon_of, validate_sweep_specs


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
    """Same-level gates evaluated by one :func:`_eval_group` call.

    Lowered from gates only by :func:`_lower_plain_groups`.  Slot arrays
    index rows of a stacked ``(2, rows, E)`` state — p01 and p10 on the
    leading axis.  In a plan the rows are the circuit's nodes plus one
    always-zero row; the multi-circuit tensor pass
    (:mod:`repro.reliability.tensor_pass`) concatenates same-key groups of
    several plans, with each plan's row offset folded into ``slots`` and
    ``fanin_slots``.
    """

    arity: int
    #: State rows written by this group, shape (m,).
    slots: np.ndarray
    #: Rows into the (2, gates, E) local-failure matrix, shape (m,).
    eps_rows: np.ndarray
    #: Fanin state rows, shape (m, k).
    fanin_slots: np.ndarray
    #: bits[v, t] = value of fanin t in error-free vector v, shape (V, k).
    bits: np.ndarray
    #: flip_mask[i, v, u] = 1.0 iff flip set u changes gate i's output
    #: under vector v, (m, V, V) — or the (V, V) mask of the group's one
    #: truth table past ``_FUSE_MAX_ARITY``.
    flip_mask: np.ndarray
    #: Weight vectors masked by output side: w_masked[b, v, m] is gate m's
    #: weight of vector v when truth[v] == b, else 0; shape (2, V, m).
    w_masked: np.ndarray
    #: Total weight per side W(b), shape (2, m).
    w_side: np.ndarray
    #: The truth table shared by a wide group's gates (None when masks
    #: are per gate) — part of the group's key (:func:`_group_key`).
    truth: Optional[Tuple[int, ...]] = field(default=None, compare=False)


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
    #: Error-free Pr[node = 1], copied once per sweep and shared, read
    #: only, by every :meth:`point`.
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
    #: Scalar sweeps only: pair lookups per point that the correlation
    #: engine answered as independent because its pair budget was full
    #: (None on compiled sweeps, which never degrade).
    pairs_dropped_budget: Optional[np.ndarray] = field(
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
        classic dict, but nothing is built until accessed.  Every point
        shares the sweep's ``signal_prob`` dict: treat it as read-only.
        """
        from .single_pass import SinglePassResult
        node_errors = _LazyNodeErrors(self.p01, self.p10, j,
                                      self.node_names, self._name_index())
        per_output = {out: float(self.per_output[o, j])
                      for o, out in enumerate(self.outputs)}
        pairs = (0 if self.correlation_pairs is None
                 else int(self.correlation_pairs[j]))
        dropped = (0 if self.pairs_dropped_budget is None
                   else int(self.pairs_dropped_budget[j]))
        return SinglePassResult(
            per_output=per_output,
            node_errors=node_errors,
            signal_prob=self.signal_prob,
            used_correlation=self.used_correlation,
            correlation_pairs=pairs,
            pairs_dropped_budget=dropped,
            frames=self.frames,
        )


#: Widest lowered gate with a per-gate flip mask (one group per level and
#: arity); past it a mask's ``4**k`` floats per gate outweigh the dispatch
#: saving and gates group per (truth, arity) with a shared mask.
_FUSE_MAX_ARITY = 6


def _lowered_truth(node) -> Tuple[Tuple[int, ...], int]:
    """A gate's truth table and arity as lowered.  An arity-1 gate becomes
    a 2-input gate whose second fanin reads the always-zero row: truth
    ``t + t`` ignores it, its extra vectors weigh 0 and it never flips, so
    the extra lanes multiply by 1.0 or add 0.0 — bit-identical results."""
    truth = truth_table(node.gate_type, node.arity)
    return (truth * 2, 2) if node.arity == 1 else (truth, node.arity)


def _group_key(arity: int, truth: Optional[Tuple[int, ...]]) -> tuple:
    """Key of a lowered gate's group within its level: the arity alone
    while flip masks ride along per gate, else (arity, truth)."""
    return (0, arity) if arity <= _FUSE_MAX_ARITY else (1, arity, truth)


def _gate_columns(circuit: Circuit, weights: WeightData,
                  gates: Sequence[str], dtype: np.dtype) -> tuple:
    """``(bits, flip_mask, w_masked, w_side)`` of ``gates`` (one lowered
    arity) in an :class:`_OpGroup`'s layout; past :data:`_FUSE_MAX_ARITY`
    the gates share one truth table and ``flip_mask`` is its ``(V, V)``.
    Groups are built from it and :meth:`CompiledSinglePass.patch_weights`
    rewrites columns with it, so patched columns equal fresh ones."""
    lowered = [_lowered_truth(circuit.node(gate)) for gate in gates]
    k = lowered[0][1]
    classes: Dict[Tuple[int, ...], int] = {}
    cls = [classes.setdefault(truth, len(classes)) for truth, _ in lowered]
    tables = [transition_lowering(truth, k) for truth in classes]
    w = np.zeros((1 << k, len(gates)), dtype=dtype)
    for i, gate in enumerate(gates):
        vector = weights.weights[gate]
        w[:len(vector), i] = vector
    side1 = np.stack([table[2] for table in tables]).astype(bool).T[:, cls]
    w_masked = np.stack([np.where(side1, 0.0, w),
                         np.where(side1, w, 0.0)]).astype(dtype)
    # Each gate's vectors add in order, whatever the group's size (numpy's
    # pairwise sum would pair up a lone gate's vectors).
    w_side = np.ascontiguousarray(np.add.accumulate(w_masked, axis=1)[:, -1])
    if k > _FUSE_MAX_ARITY:
        # transition_lowering's cache holds shared float64 arrays: narrow
        # a copy rather than the cached original.
        flip_mask = tables[0][1].astype(dtype, copy=False)
    else:
        flip_mask = np.stack([table[1] for table in tables]).astype(
            dtype, copy=False)[cls]
    return tables[0][0], flip_mask, w_masked, w_side


def _rewrite_columns(groups: Iterable["_OpGroup"], circuit: Circuit,
                     weights: WeightData, targets: np.ndarray,
                     names: Sequence[str], dtype: np.dtype) -> int:
    """Rewrite in place the columns of ``groups`` whose slots are marked
    in the boolean ``targets`` (the gates' new weights and, per gate,
    mask), through one :func:`_gate_columns` call per group key; returns
    the number of columns rewritten."""
    batches: Dict[tuple, List[tuple]] = {}
    for group in groups:
        cols = np.flatnonzero(targets[group.slots])
        if len(cols):
            batches.setdefault((group.arity, group.truth), []).append(
                (group, cols))
    rewritten = 0
    for hits in batches.values():
        _, flip_mask, w_masked, w_side = _gate_columns(
            circuit, weights,
            [names[s] for group, cols in hits for s in group.slots[cols]],
            dtype)
        at = 0
        for group, cols in hits:
            part = slice(at, at + len(cols))
            at += len(cols)
            if group.truth is None:
                group.flip_mask[cols] = flip_mask[part]
            group.w_masked[:, :, cols] = w_masked[:, :, part]
            group.w_side[:, cols] = w_side[:, part]
        rewritten += at
    return rewritten


def _lower_plain_groups(circuit: Circuit, weights: WeightData,
                        index: Mapping[str, int],
                        gate_row: Mapping[str, int],
                        gates: Sequence[str],
                        max_arity: int,
                        dtype: np.dtype = np.float64,
                        ) -> Dict[int, List["_OpGroup"]]:
    """Lower ``gates`` into the plain level schedule ``{level: [group]}``.

    The one builder of :class:`_OpGroup` s: the independence kernel
    lowers every gate, the correlated kernel the gates that read no
    nontrivial coefficient row.  Per level, one group per lowered arity
    (:func:`_group_key`); arity-1 gates read the zero row ``len(index)``.
    Groups come in key order and keep the order of ``gates``, so
    re-lowering one level reproduces a fresh compile's groups.  Every
    float array is materialized in ``dtype``, the sweep's precision.
    """
    dtype = np.dtype(dtype)
    zero_row = len(index)
    grouped: Dict[tuple, List[str]] = {}
    for gate in gates:
        node = circuit.node(gate)
        if node.arity > max_arity:
            raise CompiledPassUnsupported(
                f"gate {gate!r} has arity {node.arity} > {max_arity}; "
                "use the scalar pass")
        truth, k = _lowered_truth(node)
        grouped.setdefault((circuit.level(gate),) + _group_key(k, truth),
                           []).append(gate)

    levels: Dict[int, List[_OpGroup]] = {}
    for key, members in sorted(grouped.items()):
        fanins = np.full((len(members), key[2]), zero_row, dtype=np.intp)
        for i, gate in enumerate(members):
            node_fanins = circuit.node(gate).fanins
            fanins[i, :len(node_fanins)] = [index[f] for f in node_fanins]
        bits, flip_mask, w_masked, w_side = _gate_columns(
            circuit, weights, members, dtype)
        levels.setdefault(key[0], []).append(_OpGroup(
            arity=key[2],
            slots=np.asarray([index[g] for g in members], dtype=np.intp),
            eps_rows=np.asarray([gate_row[g] for g in members],
                                dtype=np.intp),
            fanin_slots=fanins,
            bits=bits,
            flip_mask=flip_mask,
            w_masked=w_masked,
            w_side=w_side,
            truth=key[3] if key[1] else None,
        ))
    return levels


class CompiledSinglePass:
    """A circuit + weight data lowered for vectorized eps sweeps.

    Construct once per (circuit, weights); call :meth:`run_sweep` for each
    batch of failure-probability vectors.  The plan is read-only after
    construction and contains only numpy arrays and plain containers, so it
    pickles cleanly (process-pool fan-out) and is safe to share between
    threads.  Its sweep is a :class:`~repro.reliability.tensor_pass.
    TensorBatch` of one: the same level schedule and the same loop
    (:func:`_run_packed`), over one row block.

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
            #: Rows of the plan's state block: one per node, then the
            #: always-zero row that lowered arity-1 gates read.
            self.state_rows = len(order) + 1
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
            #: Bumped by every in-place :meth:`patch_weights`: a merged
            #: ``TensorBatch`` holds copies of the arrays of one revision.
            self.revision = 0

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
        table itself changed (a type-only ``swap_gate``).  Both are column
        rewrites through :func:`_gate_columns`, mask included; only a
        retruthed gate past :data:`_FUSE_MAX_ARITY` changes group, so its
        level is re-lowered.  Either way the plan equals a fresh compile,
        array for array.

        Returns ``False`` (leaving the plan untouched) when the circuit's
        node set or topological order differs from the compiled one; the
        caller then falls back to a full re-lower.
        """
        if (circuit.topological_order() != self.node_names
                or circuit.topological_gates() != self.gate_names):
            return False
        relower_levels = {circuit.level(g) for g in retruthed_gates
                          if circuit.node(g).arity > _FUSE_MAX_ARITY}
        rewrite = {self.index[g]
                   for g in chain(changed_gates, retruthed_gates)
                   if circuit.level(g) not in relower_levels}
        with trace_span("compiled_pass.patch", circuit=circuit.name,
                        changed=len(rewrite), relevel=len(relower_levels)):
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
            if rewrite:
                targets = np.zeros(self.state_rows, dtype=bool)
                targets[list(rewrite)] = True
                _rewrite_columns(chain.from_iterable(self.levels), circuit,
                                 weights, targets, self.node_names,
                                 self.dtype)
            self.circuit = circuit
            self.weights = weights
            self.output_prob1 = np.asarray(
                [weights.signal_prob[o] for o in circuit.outputs],
                dtype=self.dtype)
            self.revision += 1
        if obs_metrics.is_enabled():
            obs_metrics.inc("compiled_pass.patches", circuit=circuit.name)
        return True

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
        validated = validate_sweep_specs(self.circuit, eps_specs,
                                         eps10_specs)
        n_points = len(validated[0])
        with trace_span("compiled_pass.run_sweep", circuit=self.circuit.name,
                        points=n_points):
            result, = _run_packed([self], self.levels, [validated],
                                  self.dtype)
        if obs_metrics.is_enabled():
            labels = {"circuit": self.circuit.name}
            obs_metrics.inc("compiled_pass.sweeps", **labels)
            obs_metrics.inc("compiled_pass.points", n_points, **labels)
            obs_metrics.inc("compiled_pass.gate_evals",
                            len(self.gate_names) * n_points, **labels)
        return result

    def _sweep_result(self, specs: List[EpsilonSpec],
                      eps10_list: Optional[List[EpsilonSpec]],
                      P: np.ndarray) -> SweepResult:
        """The :class:`SweepResult` of ``specs`` from their ``(2, nodes,
        len(specs))`` state (a view into a wider or packed state is
        copied out)."""
        p01, p10 = np.ascontiguousarray(P)
        per_output = ((1.0 - self.output_prob1)[:, None]
                      * p01[self.output_slots]
                      + self.output_prob1[:, None]
                      * p10[self.output_slots])
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
            correlation_pairs=np.zeros(len(specs), dtype=np.int64),
        )


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


def _packed_state(plans: Sequence, validated: Sequence[tuple],
                  dtype: np.dtype) -> tuple:
    """``(P, Eps, starts)`` of a sweep of ``plans`` packed back to back.

    Plan ``i`` owns ``state_rows`` rows of the ``(2, rows, width)`` state
    from ``starts[i]`` (input rows seeded) and its gates' rows of the
    ``(2, gates, width)`` eps01/eps10 matrix, filled from its validated
    ``(specs, eps10_specs)``.  ``width`` is ``max(2, longest batch)``; a
    shorter batch repeats its last point.  (einsum sums a size-1 trailing
    axis in another order, and a column must not depend on the width.)
    """
    width = max(2, max(len(specs) for specs, _ in validated))
    Eps = np.empty((2, sum(len(p.gate_names) for p in plans), width),
                   dtype=dtype)
    P = np.zeros((2, sum(p.state_rows for p in plans), width), dtype=dtype)
    starts: List[int] = []
    row0 = gate0 = 0
    for plan, (specs, eps10_specs) in zip(plans, validated):
        n, gates = len(specs), plan.gate_names
        block = Eps[:, gate0:gate0 + len(gates)]
        block[0, :, :n] = _eps_matrix(gates, specs, dtype)
        block[1, :, :n] = (block[0, :, :n] if eps10_specs is None
                           else _eps_matrix(gates, eps10_specs, dtype))
        block[:, :, n:] = block[:, :, n - 1:n]
        for slot, ep in plan.input_error_rows:
            P[0, row0 + slot] = ep.p01
            P[1, row0 + slot] = ep.p10
        starts.append(row0)
        row0 += plan.state_rows
        gate0 += len(gates)
    return P, Eps, starts


def _run_packed(plans: Sequence[CompiledSinglePass],
                levels: Sequence[Sequence["_OpGroup"]],
                validated: Sequence[tuple],
                dtype: np.dtype) -> List[SweepResult]:
    """The plain sweep of ``plans`` packed back to back, one result each:
    the one loop of :meth:`CompiledSinglePass.run_sweep` (a batch of one,
    on the plan's own schedule) and :meth:`~repro.reliability.tensor_pass.
    TensorBatch.run_sweep`.  ``levels`` indexes the packed rows."""
    P, Eps, starts = _packed_state(plans, validated, dtype)
    for level_groups in levels:
        for group in level_groups:
            _eval_group(group, P, Eps)
    return [plan._sweep_result(
                specs, eps10_list,
                P[:, start:start + len(plan.node_names), :len(specs)])
            for plan, start, (specs, eps10_list)
            in zip(plans, starts, validated)]


def _eval_group(group: _OpGroup, P: np.ndarray, Eps: np.ndarray) -> None:
    """Evaluate one gate batch over the eps axis.

    ``P`` is the stacked ``(2, rows, E)`` state (p01, p10) and is written
    in place at ``group.slots``; ``Eps`` is the stacked ``(2, gates, E)``
    local failure matrix (eps01, eps10).  Both sides share every step:
    one gather of the fanin state, one einsum for both weighted sums, one
    fold and one scatter.  ``P`` must be C-contiguous: fanin state is
    gathered from its ``(2 * rows, E)`` view.
    """
    n_vec, k = group.bits.shape             # V = 2**k
    m = len(group.slots)
    n_rows, n_eps = P.shape[1:]
    dtype = P.dtype
    flat = P.reshape(2 * n_rows, n_eps)
    # Flat state row of fanin t's flip probability under error-free vector
    # v — the scalar pass's probs[t][events[t]]: its p01 row where the
    # fanin reads 0, its p10 row where it reads 1.  Shape (V, m, k).
    gather = group.fanin_slots[None] + n_rows * group.bits[:, None, :]

    pw = np.empty((2, m, n_eps), dtype=dtype)
    # Chunk the gate batch so the (V, chunk, V, E) intermediate stays small.
    rows = max(1, _CHUNK_ELEMENTS // max(1, n_vec * n_vec * n_eps))
    for start in range(0, m, rows):
        sl = slice(start, min(m, start + rows))
        pv = flat.take(gather[:, sl], axis=0)           # (V, mc, k, E)
        qv = 1.0 - pv
        # Distribution over flip sets u by successive doubling: after step
        # t, the first 2**(t+1) lanes of axis 2 enumerate all flip subsets
        # of fanins 0..t.  The doubling runs inside one preallocated
        # (V, mc, V, E) buffer — lanes [w, 2w) take old*p, then [0, w)
        # scales in place by (1-p): the same products, no concatenates.
        r = np.empty((n_vec, pv.shape[1], n_vec, n_eps), dtype=dtype)
        r[:, :, 0] = qv[:, :, 0]
        r[:, :, 1] = pv[:, :, 0]
        width = 2
        for t in range(1, k):
            old = r[:, :, :width]
            np.multiply(old, pv[:, :, t, None], out=r[:, :, width:2 * width])
            old *= qv[:, :, t, None]
            width *= 2
        # Total probability that fanin errors flip the output, per v —
        # with a per-gate mask when the group fuses several truth classes.
        if group.flip_mask.ndim == 3:
            flip = np.einsum("vmue,mvu->vme", r, group.flip_mask[sl])
        else:
            flip = np.einsum("vmue,vu->vme", r, group.flip_mask)
        np.minimum(flip, 1.0, out=flip)
        # Weighted components PW(b) = sum_v W[v] * flip[v] over side b.
        pw[:, sl] = np.einsum("bvm,vme->bme", group.w_masked[:, :, sl], flip)

    # Fold in the local failure channel: item (iii) of the paper's Sec. 4,
    # identical to combine_with_local_failure but over the whole batch:
    # side b reads its own channel eps[b] and the opposite one eps[1-b].
    w = group.w_side[:, :, None]
    ratio = np.divide(pw, w, out=np.zeros_like(pw), where=w > 0.0)
    np.clip(ratio, 0.0, 1.0, out=ratio)
    e = Eps.take(group.eps_rows, axis=1)           # (2, m, E)
    P[:, group.slots] = ratio * (1.0 - e[::-1]) + (1.0 - ratio) * e


# ======================================================================
# Correlated kernel (Sec. 4.1)
# ======================================================================

@dataclass(frozen=True)
class _Form:
    """The op sequence of one perturbation term, shared by every term of
    that form in a step.

    A term of the scalar ``_correlated_transition`` is fixed, up to its
    operands, by its flip count, which flips carry a conditioning row
    (``cond``: their indices), its pair-cap count, and the coefficient
    chain length of each non-flipping fanin in order (``chains``); rows
    equal to the constant 1.0 are dropped before the form is read off.

    Operand layout of ``n`` terms: state ``(n_state, n, E)`` = flips, then
    non-flips; coefficients ``(n_rows, n, E)`` = conditioning rows, pair
    rows, then each non-flip's chain.
    """

    n_flips: int
    cond: Tuple[int, ...]
    n_pairs: int
    chains: Tuple[int, ...]

    @property
    def n_state(self) -> int:
        return self.n_flips + len(self.chains)

    @property
    def n_rows(self) -> int:
        return len(self.cond) + self.n_pairs + sum(self.chains)


def _form_terms(form: _Form, S: np.ndarray, Cg: np.ndarray,
                out: np.ndarray) -> None:
    """Evaluate ``n`` terms of one form into ``out``, shape (n, E).

    Elementwise replica of the scalar ``_correlated_transition``: the
    same operations in the same order, with ``np.minimum`` standing in for
    its clamps and caps, so every element matches the scalar pass to
    float rounding.  ``S`` / ``Cg`` are the gathered operands (see
    :class:`_Form`); both are scratch and are overwritten.
    """
    nf = form.n_flips
    flips = S[:nf]
    for c, t in enumerate(form.cond):
        flips[t] *= Cg[c]
        np.minimum(flips[t], 1.0, out=flips[t])
    c = len(form.cond)
    # multiply.reduce along the leading axis multiplies left to right.
    term = flips[0] if nf == 1 else np.multiply.reduce(flips, axis=0)
    if form.n_pairs:
        for pair in Cg[c:c + form.n_pairs]:
            term *= pair
            np.minimum(term, 1e12, out=term)
        c += form.n_pairs
        # Feasibility: the joint of all flips cannot exceed any single
        # flip probability (same cap as the scalar pass).
        np.minimum(term, np.minimum.reduce(flips, axis=0), out=term)
    for i, length in enumerate(form.chains):
        p = S[nf + i]
        if length:
            scale = Cg[c]
            for factor in Cg[c + 1:c + length]:
                scale *= factor
                np.minimum(scale, 1e12, out=scale)
            c += length
            p *= scale
            np.minimum(p, 1.0, out=p)
        np.subtract(1.0, p, out=p)
        term *= p
    out[...] = term


@dataclass
class _Step:
    """One dependency step of the correlated schedule, run as one batch.

    A step is one level's corrected gates (``gate`` tail) or one wave of
    that level's expansion rows (``expand`` tail).  Its members never read
    each other's outputs, so the step gathers all their state and
    coefficient operands at once, evaluates each perturbation form once
    over every term of that form, and reduces the terms in rank-ordered
    rounds that keep each element's scalar addition order:

    * terms land in ``T`` in form blocks; ``to_rank`` reorders them
      rank-major over the step's vectors (sorted by descending term
      count, so the vectors with an ``r``-th term are a prefix) and each
      ``pert_rounds`` entry ``(n, off)`` adds rank ``r`` onto the first
      ``n`` running totals;
    * ``to_side`` reorders the vector totals into the same rank-major
      layout over ``(member, side)`` slots, ``W·min(1, total)`` is taken
      there, and ``side_rounds`` accumulate each slot; slot ``i`` ends in
      row ``i``.

    (``np.add.reduceat`` over contiguous segments cannot replace the
    rounds: it adds a segment as ``a0 + (a1 + ...)``, not left to right,
    so its sums can differ from the scalar pass in the last bit.)
    """

    #: ``"gate"`` or ``"expand"``.
    kind: str
    #: Flat ``event * state_rows + slot`` state reads and coefficient rows,
    #: in form blocks (operand-major within a block).
    state: np.ndarray
    rows: np.ndarray
    #: ``(form, n, state offset, row offset, T offset)`` per form block.
    forms: tuple
    n_terms: int
    to_rank: np.ndarray
    pert_rounds: tuple
    to_side: np.ndarray
    #: Input-vector weights in slot order, shape (vectors, 1).
    weights: np.ndarray
    side_rounds: tuple
    #: Node slot (gate) or coefficient row (expansion) written, shape (R,).
    targets: np.ndarray
    #: Rows into the (gates, E) local-failure matrices, shape (R,).
    eps_rows: np.ndarray
    #: Slot row of each member side, shape (sides, R): gate sides 0 and 1,
    #: an expansion's own side ``ea``; ``mask`` (sides, R, 1) marks the
    #: sides with terms and a nonzero weight total, ``den`` holds that
    #: total (1.0 where masked off).
    slots: np.ndarray
    mask: np.ndarray
    den: np.ndarray
    #: Expansion only: ``ea == 1`` per member (R, 1), and the flat state
    #: reads of the marginal of ``a`` and the probability of ``b`` (2, R).
    ea1: Optional[np.ndarray] = None
    marginals: Optional[np.ndarray] = None
    #: Steps laid out by a patch only (see :class:`~repro.reliability.
    #: plan_patch.PatchIndex`): where each program weight and each side
    #: total comes from, shaped like ``weights[:, 0]`` and ``den`` — an
    #: offset into the flat weight vectors, and ``2 wire + side``.
    w_src: Optional[np.ndarray] = None
    d_src: Optional[np.ndarray] = None

    @property
    def n_operands(self) -> int:
        """Rows of the step's gathered operands and terms, per column."""
        return len(self.state) + len(self.rows) + self.n_terms


def _run_step(st: _Step, flat: np.ndarray, P: np.ndarray, C: np.ndarray,
              Eps: np.ndarray) -> None:
    """Evaluate one step over the eps axis and scatter its results.

    ``P`` is the ``(2, state_rows, E)`` state (``flat`` its
    ``(2 state_rows, E)`` view), ``C`` the ``(rows, E)`` coefficients and
    ``Eps`` the stacked ``(2, gates, E)`` local failure probabilities (01
    then 10).  Gathers use ``take``, which skips fancy indexing's
    per-call setup.
    """
    width = flat.shape[1]
    if st.n_terms:
        S = flat.take(st.state, axis=0)
        Cg = C.take(st.rows, axis=0)
        T = np.empty((st.n_terms, width))
        for form, n, s_off, c_off, t_off in st.forms:
            _form_terms(
                form,
                S[s_off:s_off + form.n_state * n].reshape(-1, n, width),
                Cg[c_off:c_off + form.n_rows * n].reshape(-1, n, width),
                T[t_off:t_off + n])
        T = T.take(st.to_rank, axis=0)
        for n, off in st.pert_rounds:
            T[:n] += T[off:off + n]
        pw = T.take(st.to_side, axis=0)
        np.minimum(1.0, pw, out=pw)
        pw *= st.weights
        for n, off in st.side_rounds:
            pw[:n] += pw[off:off + n]
    else:
        pw = np.zeros((1, width))
    r = pw.take(st.slots, axis=0)
    r /= st.den
    np.minimum(r, 1.0, out=r)
    e = Eps.take(st.eps_rows, axis=1)
    if st.kind == "gate":
        # Sec. 4 item (iii) per side: r (1 - e_other) + (1 - r) e_own.
        out = r * (1.0 - e[::-1])
        np.subtract(1.0, r, out=r)
        r *= e
        out += r
        P[:, st.targets] = np.where(st.mask, out, e)
        return
    local = np.where(st.ea1, e[1], e[0])
    cond = (1.0 - e[0]) - e[1]
    cond *= r[0]
    cond += local
    np.maximum(cond, 0.0, out=cond)
    np.minimum(cond, 1.0, out=cond)
    cond = np.where(st.mask[0], cond, local)
    marginal, p_b = flat.take(st.marginals, axis=0)
    # Degenerate lanes (zero/denormal marginals) read 1.0 exactly as the
    # scalar engine's early returns; `where` keeps their divisions safe.
    valid = (marginal > 1e-300) & (p_b > 0.0)
    cond /= np.where(valid, marginal, 1.0)
    cap = np.maximum(marginal, p_b)
    cap = np.divide(1.0, np.where(valid, cap, 1.0), out=cap)
    np.minimum(cond, cap, out=cond)
    np.minimum(cond, 1e9, out=cond)
    np.maximum(0.0, cond, out=cond)
    C[st.targets] = np.where(valid, cond, 1.0)


class _LoweringTemplate:
    """The Fig. 4 programs shared by every row of one lowering template.

    A template is a gate function (truth table, arity) together with the
    instance structure that prunes its programs — active input vectors and
    error-free fanin positions, see
    :func:`~repro.probability.error_propagation.
    correlated_transition_lowering` — plus ``side``: ``None`` for a
    corrected gate, or the output value ``ea`` whose input vectors a
    coefficient row ``(a, ea | b, eb)`` expands, conditioned on ``b``.

    Every row the programs read is recorded once, in the order the scalar
    ``_correlated_transition`` first queries it, as a fanin-position
    *spec* ``(t_a, e_a, t_b, e_b)`` (``t_b = -1``: the conditioning wire
    ``b``).  A batch of instances resolves the template's specs as
    ``(members, specs)`` arrays; :meth:`forms` then sorts the programs'
    terms into :class:`_Form` s once per pattern of specs that resolved
    to the constant-1.0 row, which are dropped from the terms.
    """

    def __init__(self, truth: Tuple[int, ...], k: int, active: int,
                 errfree: int, side: Optional[int]):
        lowered = correlated_transition_lowering(truth, k, active, errfree)
        if side is not None:
            lowered = tuple(r for r in lowered if r[1] == side)
        spec_id: Dict[tuple, int] = {}
        #: Per term: (program, rank, state columns, the specs it reads in
        #: operand order, and its (conditioning spec of each flip or
        #: None, pair specs, each non-flip's chain specs)).
        self._terms: List[tuple] = []
        state_pos: List[int] = []
        state_ev: List[int] = []
        for i, (_, _, events, perts) in enumerate(lowered):

            def prow(t: int, u: int) -> int:
                if u < t:
                    t, u = u, t
                spec = (t, events[t], u, events[u])
                return spec_id.setdefault(spec, len(spec_id))

            def crow(t: int) -> Optional[int]:
                if side is None:
                    return None
                spec = (t, events[t], -1, -1)
                return spec_id.setdefault(spec, len(spec_id))

            positions = sorted({t for flips, nonflips in perts
                                for t in flips + nonflips})
            col = {t: len(state_pos) + j for j, t in enumerate(positions)}
            for rank, (flips, nonflips) in enumerate(perts):
                cond = tuple(crow(t) for t in flips)
                pairs = tuple(prow(flips[x], flips[y])
                              for x in range(len(flips))
                              for y in range(x + 1, len(flips)))
                chains = tuple(
                    tuple(([] if side is None else [crow(t)])
                          + [prow(t, u) for u in flips])
                    for t in nonflips)
                self._terms.append((
                    i, rank, [col[t] for t in flips + nonflips],
                    [q for q in cond if q is not None] + list(pairs)
                    + [q for ch in chains for q in ch],
                    (cond, pairs, chains)))
            state_pos += positions
            state_ev += [events[t] for t in positions]
        #: (term, kept-bits of its specs) -> (form key, kept specs).
        self._memo: Dict[tuple, tuple] = {}
        table = np.asarray(list(spec_id), dtype=np.intp).reshape(-1, 4)
        self.spec_a, self.spec_ea, self.spec_b, self.spec_eb = table.T
        #: Fanin position and event of every state read, shape (n_s,).
        self.state_pos = np.asarray(state_pos, dtype=np.intp)
        self.state_ev = np.asarray(state_ev, dtype=np.intp)
        #: Input vector, error-free output value and term count of every
        #: program, in program order.
        self.vectors = np.asarray([r[0] for r in lowered], dtype=np.intp)
        self.sides = np.asarray([r[1] for r in lowered], dtype=np.intp)
        self.counts = np.asarray([len(r[3]) for r in lowered],
                                 dtype=np.intp)
        #: Active input vectors per error-free output value, ascending —
        #: the scalar accumulation order of the side weight totals.
        self.side_vectors = _side_vectors(truth, k, active)

    def forms(self, keep: np.ndarray) -> Dict[tuple, tuple]:
        """The terms under one keep pattern, split by :class:`_Form` key.

        A spec is a row operand iff ``keep`` marks it.  Returns, per form
        key ``(flip flags, pair count, chain lengths)``, the lists
        ``(program, rank, state columns, spec columns)`` of its terms: the
        program index, the term's rank within the program, and its
        operand layout as columns of the template's state reads and of
        its specs.
        """
        keep = keep.tolist()
        forms: Dict[tuple, tuple] = {}
        for t, (i, rank, scols, read, layout) in enumerate(self._terms):
            memo_key = (t, tuple(map(keep.__getitem__, read)))
            hit = self._memo.get(memo_key)
            if hit is None:
                cond, pairs, chains = layout
                flags = tuple(q is not None and keep[q] for q in cond)
                pairs = [q for q in pairs if keep[q]]
                chains = [[q for q in ch if keep[q]] for ch in chains]
                hit = self._memo[memo_key] = (
                    (flags, len(pairs), tuple(map(len, chains))),
                    [q for q, f in zip(cond, flags) if f] + pairs
                    + [q for ch in chains for q in ch])
            key, cols = hit
            entry = forms.get(key)
            if entry is None:
                entry = forms[key] = ([], [], [], [])
            entry[0].append(i)
            entry[1].append(rank)
            entry[2].append(scols)
            entry[3].append(cols)
        return forms


def _side_vectors(truth: Tuple[int, ...], k: int,
                  active: int) -> List[np.ndarray]:
    """Active input vectors per error-free output value, ascending."""
    return [np.asarray([v for v in range(1 << k)
                        if (active >> v) & 1 and truth[v] == val],
                       dtype=np.intp) for val in (0, 1)]


def _active_masks(w: np.ndarray) -> List[int]:
    """Bit ``v`` set iff vector ``v`` has nonzero weight, per row of the
    ``(gates, 2**k)`` weights."""
    return [int.from_bytes(row, "little") for row in
            map(bytes, np.packbits(w != 0.0, axis=1, bitorder="little"))]


def _side_total(w: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Per-row sum of ``w[:, vectors]`` added left to right (the scalar
    pass's Python-float accumulation, not numpy's pairwise sum)."""
    if not len(vectors):
        return np.zeros(w.shape[0], dtype=np.float64)
    return np.add.accumulate(w[:, vectors], axis=1)[:, -1]


class _RowTable:
    """Coefficient-row numbering of a correlated plan under construction.

    :meth:`resolve` is the scalar engine's pair classification — same
    wire, disjoint supports, canonicalization, level gap — over whole
    arrays of ``(a, ea, b, eb)`` queries on topological slots, each wire
    event packed as one ``2 slot + event`` integer.  Same-wire
    rows live in a dense table indexed like the flat sweep state,
    ``event * (nodes + 1) + slot`` (the state's last row is the plain
    kernel's zero row).  A cross-wire
    expansion row is keyed by one packed int64 per canonical pair,
    ``(2 a + ea) * 2n + (2 b + eb)`` — the later wire is the larger half,
    so canonicalization is a max/min — held in a sorted key array that
    lookups search and inserts merge into.  Rows are created on first
    sight; new expansion rows queue until :meth:`take_new`.

    ``gap`` is the level-gap cap; a ``fitting`` table keeps the keys it
    rejected on the gap alone, so :meth:`widen` can admit them later.
    """

    def __init__(self, structure: PairStructure, is_logic: np.ndarray,
                 gap: Optional[int], fitting: bool = False):
        n = len(structure.order)
        self.n = n
        self.n_rows = 2  # rows 0/1 are the 1.0 / 0.0 constants
        self.same_row = np.full(2 * (n + 1), -1, dtype=np.intp)
        #: Sorted packed keys of the expansion rows, and their rows.
        self.keys = np.empty(0, dtype=np.int64)
        self.rows = np.empty(0, dtype=np.intp)
        self._new: List[Tuple[np.ndarray, np.ndarray]] = []
        self._support = structure.support_words
        self._levels = structure.slot_levels
        self.gap = gap
        self._is_logic = is_logic
        self._rejected: Optional[List[np.ndarray]] = [] if fitting else None

    def _add_pairs(self, keys: np.ndarray) -> np.ndarray:
        """Number sorted, unseen ``keys`` as new rows."""
        rows = np.arange(self.n_rows, self.n_rows + len(keys),
                         dtype=np.intp)
        self.n_rows += len(keys)
        at = np.searchsorted(self.keys, keys)
        self.keys = np.insert(self.keys, at, keys)
        self.rows = np.insert(self.rows, at, rows)
        self._new.append((keys, rows))
        return rows

    def seed(self, pairs: np.ndarray) -> None:
        """Pre-number cached ``(a, ea, b, eb)`` slot rows (all canonical)."""
        if len(pairs):
            a, ea, b, eb = np.asarray(pairs, dtype=np.int64).T
            self._add_pairs(np.sort((2 * a + ea) * (2 * self.n)
                                    + 2 * b + eb))

    def take_new(self) -> Tuple[np.ndarray, ...]:
        """``(a, ea, b, eb, row)`` of the expansion rows created since the
        last call."""
        new, self._new = self._new, []
        if not new:
            return (np.empty(0, dtype=np.int64),) * 5
        keys, rows = (np.concatenate(x) for x in zip(*new))
        return self.decode(keys) + (rows,)

    def decode(self, keys: np.ndarray) -> Tuple[np.ndarray, ...]:
        ka, kb = np.divmod(keys, 2 * self.n)
        return ka >> 1, ka & 1, kb >> 1, kb & 1

    def resolve(self, ka: np.ndarray, kb: np.ndarray,
                create: bool = True) -> Optional[np.ndarray]:
        """Row of every query: flat arrays of ``2 slot + event`` halves.

        With ``create`` off the numbering is read only: None when some
        query needs a row the table does not have."""
        out = np.full(ka.shape, ROW_ONE, dtype=np.intp)
        same = (ka >> 1) == (kb >> 1)
        if same.any():
            # A wire cannot err both ways at once: cross-direction
            # same-wire queries read the constant 0.0 row.
            out[same] = ROW_ZERO
            same_ev = np.flatnonzero(same & (ka == kb))
            flat = (ka[same_ev] & 1) * (self.n + 1) + (ka[same_ev] >> 1)
            fresh = np.unique(flat[self.same_row[flat] < 0])
            if len(fresh) and not create:
                return None
            self.same_row[fresh] = np.arange(
                self.n_rows, self.n_rows + len(fresh))
            self.n_rows += len(fresh)
            out[same_ev] = self.same_row[flat]
        cross = np.flatnonzero(~same)
        if not len(cross):
            return out
        ka, kb = ka[cross], kb[cross]
        keys, inv = np.unique(np.maximum(ka, kb) * (2 * self.n)
                              + np.minimum(ka, kb), return_inverse=True)
        ua, _, ub, _ = self.decode(keys)
        valid = (np.bitwise_and(self._support[ua], self._support[ub])
                 .any(axis=1) & self._is_logic[ua])
        if self.gap is not None:
            near = self._levels[ua] - self._levels[ub] <= self.gap
            if self._rejected is not None:
                self._rejected.append(keys[valid & ~near])
            valid &= near
        keys = keys[valid]
        at = np.searchsorted(self.keys, keys)
        known = at < len(self.keys)
        known[known] = self.keys[at[known]] == keys[known]
        rows = np.empty(len(keys), dtype=np.intp)
        rows[known] = self.rows[at[known]]
        if not known.all():
            if not create:
                return None
            rows[~known] = self._add_pairs(keys[~known])
        key_rows = np.full(len(valid), ROW_ONE, dtype=np.intp)
        key_rows[valid] = rows
        out[cross] = key_rows[inv]
        return out

    def widen(self, cap: Optional[int]) -> bool:
        """Raise the gap to the nearest one, at most ``cap``, that admits
        a rejected key, and number the keys it admits as new rows; False
        when no rejected key is that near."""
        keys = np.unique(np.concatenate(self._rejected + [self.keys[:0]]))
        ua, _, ub, _ = self.decode(keys)
        apart = self._levels[ua] - self._levels[ub]
        if not len(keys) or (cap is not None and apart.min() > cap):
            return False
        self.gap = int(apart.min())
        near = apart == self.gap
        self._rejected = [keys[~near]]
        self._add_pairs(keys[near])
        return True


@dataclass
class _GateBucket:
    """Gates sharing one lowering template (see :class:`_LoweringTemplate`)."""

    truth: Tuple[int, ...]
    k: int
    active: int
    errfree: int
    #: Member gate slots, and their weight vectors, shape (m, 2**k).
    slots: np.ndarray
    weights: np.ndarray
    #: Lowering templates built so far, by side (None: the gate itself).
    templates: Dict[Optional[int], _LoweringTemplate] = field(
        default_factory=dict)

    def template(self, side: Optional[int]) -> _LoweringTemplate:
        tl = self.templates.get(side)
        if tl is None:
            tl = self.templates[side] = _LoweringTemplate(
                self.truth, self.k, self.active, self.errfree, side)
        return tl


#: The :meth:`CompiledCorrelatedPass._lay_out` entry of a level with
#: nothing laid out.
_NO_STEPS = ((), None, ())


def _starts(counts) -> np.ndarray:
    """Exclusive prefix sums: where each of ``counts`` consecutive blocks
    begins."""
    counts = np.asarray(counts, dtype=np.intp)
    return np.cumsum(counts) - counts


def _concat_columns(parts: List[tuple]) -> tuple:
    """Column-wise concatenation of equal-arity tuples of arrays."""
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of nonnegative ``key < bound``, sorted as the
    narrowest unsigned type that holds ``bound`` (numpy radix-sorts keys
    of up to 16 bits; its stable int64 sort is a merge sort)."""
    return np.argsort(key.astype(np.min_scalar_type(max(bound - 1, 0))),
                      kind="stable")


def _rank_major(step: np.ndarray, count: np.ndarray, n_steps: int):
    """Rank-major layout of accumulators that sum ``count`` items each.

    Within each step, accumulators are ordered by descending count, so
    those with an item of rank ``r`` are a prefix.  Returns ``(pos, cnt,
    off)``: each accumulator's position in its step, and per (step,
    rank) how many accumulators have an item of that rank and where that
    rank's block begins in the step's rank-major item array — item
    ``(acc, r)`` sits at ``off[step, r] + pos[acc]``.
    """
    depth = int(count.max()) if len(count) else 0
    key = step * (depth + 1) + (depth - count)
    order = _stable_order(key, n_steps * (depth + 1))
    pos = np.empty(len(step), dtype=np.intp)
    pos[order] = (np.arange(len(step))
                  - _starts(np.bincount(step, minlength=n_steps))[
                      step[order]])
    hist = np.bincount(step * (depth + 1) + count,
                       minlength=n_steps * (depth + 1)).reshape(n_steps, -1)
    cnt = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return pos, cnt, np.cumsum(cnt, axis=1) - cnt


def _rounds(cnt: List[int], off: List[int]) -> tuple:
    """``(n, offset)`` of ranks 1.. with items: the accumulation rounds."""
    return tuple((n, o) for n, o in zip(cnt[1:], off[1:]) if n)


def _split_by(key: np.ndarray, by_key: Optional[np.ndarray] = None
              ) -> List[np.ndarray]:
    """Member indices grouped by equal ``key``, in ascending key order
    (``by_key``: a stable ascending order of ``key``, if known)."""
    if not len(key):
        return []
    if by_key is None:
        by_key = _stable_order(key, int(key.max()) + 1)
    sorted_key = key[by_key]
    cuts = (np.flatnonzero(sorted_key[1:] != sorted_key[:-1]) + 1).tolist()
    return [by_key[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(key)])]


def _split_rows(bits: np.ndarray) -> List[np.ndarray]:
    """Member indices grouped by equal rows of the boolean ``bits``.

    Each row packs into little-endian uint64 words (at least one); groups
    come in ascending order of those words, compared first word first.
    """
    packed = np.packbits(bits, axis=1)
    n_words = max(1, -(-packed.shape[1] // 8))
    words = np.zeros((len(bits), 8 * n_words), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    words = words.view(np.uint64)
    order = np.lexsort(words.T[::-1])
    new = (words[order[1:]] != words[order[:-1]]).any(axis=1)
    key = np.empty(len(bits), dtype=np.intp)
    key[order] = np.concatenate(([0], np.cumsum(new)))
    return _split_by(key, order)


class _PlanStore:
    """One compile's ``corrplan`` entry in the artifact store.

    Pair discovery depends only on circuit structure and the two
    correlation knobs, never on eps.  The entry holds the canonical pair
    table as an ``(n, 4)`` int array of ``(later_slot, event,
    earlier_slot, event)`` rows over the topological order and the
    level gap it was discovered at (-1 for none), or an "unsupported"
    marker when not even gap 0 fits the pair budget, so repeat runs skip
    the fit.  The circuit is hashed once, for the load and the store
    alike.
    """

    def __init__(self, cache_dir: str, circuit: Circuit,
                 max_level_gap: Optional[int], max_pairs: int):
        self.cache_dir = cache_dir
        self.circuit = circuit
        self.key = {"circuit_hash": structural_hash(circuit),
                    "max_level_gap": max_level_gap,
                    "max_pairs": int(max_pairs)}

    def load(self) -> Optional[dict]:
        """``{"unsupported", "pairs", "level_gap"}`` or None."""
        from .. import store
        n_nodes = len(self.circuit)

        def decode(archive, manifest):
            pairs = archive["pairs"].astype(np.int64)
            if pairs.ndim != 2 or pairs.shape[1] != 4:
                raise ValueError("pair table layout mismatch")
            if len(pairs) and (pairs[:, (0, 2)].min() < 0
                               or pairs[:, (0, 2)].max() >= n_nodes):
                raise ValueError("pair slot out of range")
            gap = int(archive["level_gap"][()])
            return {"unsupported": bool(archive["unsupported"][()]),
                    "pairs": pairs, "level_gap": None if gap < 0 else gap}

        return store.load(self.cache_dir, "corrplan", self.key, decode,
                          circuit=self.circuit.name)

    def save(self, pairs: Optional[np.ndarray] = None,
             level_gap: Optional[int] = None,
             unsupported: bool = False) -> None:
        from .. import store
        table = (np.asarray(pairs, dtype=np.int64).reshape(-1, 4)
                 if pairs is not None and len(pairs)
                 else np.empty((0, 4), dtype=np.int64))
        store.save(self.cache_dir, "corrplan", self.key,
                   {"unsupported": np.asarray(bool(unsupported)),
                    "pairs": table,
                    "level_gap": np.asarray(
                        -1 if level_gap is None else level_gap)},
                   circuit=self.circuit.name)


class CompiledCorrelatedPass:
    """Circuit + weights lowered for vectorized correlation-corrected sweeps.

    The Sec. 4.1 engine's state — one lazily-memoized coefficient per
    ``(wire, event, wire, event)`` pair — is lowered at plan time into an
    integer-indexed row table; :meth:`run_sweep` then evaluates the entire
    corrected pass, coefficients included, with a trailing eps axis.

    Plan construction discovers the structural closure of the Fig. 4
    recursion: each gate's transition programs query the coefficient rows
    they need, and each new expansion row's own programs query further
    rows.  The recursion is well-founded because a canonical pair always
    expands its topologically *later* wire through its gate, so every
    referenced pair is strictly earlier — which also makes the discovered
    set (and the coefficient values) independent of query order, the
    contract shared with the scalar engine via
    :class:`~repro.probability.correlation.PairStructure`.

    Nothing is done per row in Python.  Gates are bucketed by lowering
    template (:class:`_LoweringTemplate`); discovery runs in frontier
    rounds — every gate, then every expansion row the previous round
    created, bucketed by its wire's template and event — and each round
    resolves all its row queries in one vectorized call
    (:class:`_RowTable`).  The pair budget is tested after every round, so
    a closure over it lowers nothing (see :meth:`_fit`).  Once the closure
    is complete, each (template, side) bucket's keep patterns sort the
    template's terms into forms, and the members, programs and terms of
    all buckets are laid out as dependency steps (:class:`_Step`) with
    array ops.

    Parameters mirror the analyzer's correlation knobs: ``max_pairs``
    bounds the expansion-row count, ``max_level_gap`` is the Sec. 4.1
    locality cap, and ``cache_dir`` persists the discovered pair table
    across processes (a ``corrplan`` entry of :mod:`repro.store`, see
    :class:`_PlanStore`).  A closure over ``max_pairs`` at the cap is
    discovered again at the widest gap below it that fits
    (:attr:`level_gap`); when not even gap 0 fits the plan refuses with
    :class:`CompiledPassUnsupported`, and the analyzer falls back to the
    scalar engine's per-query budget degradation.

    After a type-only edit, :meth:`patch_weights` updates the plan in
    place: it keeps the pair closure and row numbering, rewrites the
    values of members whose lowering template is unchanged, and lays out
    again only the steps of members whose template changed.
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
        #: The level gap the closure was discovered at: ``max_level_gap``
        #: unless the closure there passed ``max_pairs``.
        self.level_gap = max_level_gap
        #: Coefficient rows numbered so far (all of them once compiled).
        self.n_rows = 2
        #: Lowering batches: the plan's (template, side) buckets.
        self.num_batches = 0
        #: Bumped by every in-place :meth:`patch_weights`.
        self.revision = 0
        #: What :meth:`patch_weights` needs beyond the schedule
        #: (a :class:`~repro.reliability.plan_patch.PatchIndex`), built
        #: on its first call: a plan never patched pays nothing for it.
        self._patch_index = None
        with trace_span("compiled_pass.compile_correlated",
                        circuit=circuit.name) as span:
            try:
                self._compile(dict(input_errors or {}), max_arity,
                              cache_dir, structure)
            finally:
                span.set(rows=self.n_rows, batches=self.num_batches,
                         level_gap=self.level_gap)
        if obs_metrics.is_enabled():
            labels = {"circuit": circuit.name}
            obs_metrics.inc("compiled_pass.correlated_compiles", **labels)
            obs_metrics.set_gauge("compiled_pass.coefficient_rows",
                                  self.n_rows, **labels)
            obs_metrics.set_gauge("compiled_pass.correlated_groups",
                                  self.num_corr_groups, **labels)
            obs_metrics.set_gauge("compiled_pass.lowering_batches",
                                  self.num_batches, **labels)

    # -- plan construction ---------------------------------------------
    def _compile(self, input_errors, max_arity, cache_dir,
                 structure=None) -> None:
        circuit = self.circuit
        order = circuit.topological_order()
        self.node_names: List[str] = order
        self.index: Dict[str, int] = {n: i for i, n in enumerate(order)}
        #: Rows of the sweep state: one per node, then the always-zero row
        #: that lowered arity-1 plain gates read.  Flat state reads are
        #: ``event * state_rows + slot``.
        self.state_rows = len(order) + 1
        gates = circuit.topological_gates()
        self.gate_names: List[str] = gates
        self._gate_row = {g: i for i, g in enumerate(gates)}
        self.max_arity = max_arity
        self.input_error_rows: List[Tuple[int, ErrorProbability]] = [
            (self.index[name], ep) for name, ep in input_errors.items()]
        for gate in gates:
            arity = circuit.node(gate).arity
            if arity > max_arity:
                raise CompiledPassUnsupported(
                    f"gate {gate!r} has arity {arity} > {max_arity};"
                    " use the scalar pass")
        with trace_span("compiled_pass.compile_correlated.discover",
                        circuit=circuit.name) as span:
            found, table, is_logic, buckets, plan_store, cached = \
                self._discover_closure(input_errors, cache_dir, structure)
            span.set(rows=self.n_rows, over_budget=found is None)
        if found is None:
            with trace_span("compiled_pass.compile_correlated.fit",
                            circuit=circuit.name) as span:
                try:
                    table = _RowTable(self.structure, is_logic,
                                      self._fit(is_logic, buckets))
                except CompiledPassUnsupported:
                    if plan_store is not None:
                        plan_store.save(unsupported=True)
                    raise
                found = self._discover(table, buckets)
                span.set(level_gap=table.gap, rows=self.n_rows)
        self.level_gap = table.gap
        with trace_span("compiled_pass.compile_correlated.lower",
                        circuit=circuit.name):
            self._name_pairs(table, None if cached else plan_store)
            laid = self._lay_out(found, buckets, circuit, self.weights)
            same = self._same_by_level(table)
            #: Per level, in order: (plain groups, gate step, same-wire
            #: batch, expansion waves); ``_level_pos`` maps a level to its
            #: entry.
            self._schedule: List[tuple] = []
            self._level_pos: Dict[int, int] = {}
            for lv in sorted(set(laid) | set(same)):
                plain, gate_step, waves = laid.get(lv, _NO_STEPS)
                self._level_pos[lv] = len(self._schedule)
                self._schedule.append((plain, gate_step, same.get(lv), waves))
            self._count_schedule()
        self.output_slots = np.asarray(
            [self.index[o] for o in circuit.outputs], dtype=np.intp)
        self.output_prob1 = np.asarray(
            [self.weights.signal_prob[o] for o in circuit.outputs],
            dtype=np.float64)

    def _discover_closure(self, input_errors, cache_dir, structure):
        """Bucket the gates and discover the closure at ``max_level_gap``
        (or the cached plan's gap).  Returns ``(found, table, is_logic,
        buckets, plan_store, cached)``; ``found`` is None when the closure
        passed ``max_pairs`` (the plan is then fitted)."""
        circuit = self.circuit
        order = self.node_names
        # A caller holding a still-valid PairStructure (same circuit
        # structure — e.g. an incremental workspace re-lowering after a
        # type-only swap) can pass it in to skip the support-bitset
        # recomputation; the row table, not the structure, holds the gap.
        self.structure = (structure if structure is not None
                          else PairStructure(
                              circuit, max_level_gap=self.max_level_gap))

        nodes = [circuit.node(name) for name in order]
        is_logic = np.asarray([node.gate_type.is_logic for node in nodes],
                              dtype=bool)
        # Wires whose error probability is identically zero at every eps
        # point: constants and noise-free primary inputs.  Their pruning in
        # the lowering mirrors the scalar pass's zero-probability exits.
        error_free = np.zeros(len(order), dtype=bool)
        for slot in np.flatnonzero(~is_logic).tolist():
            ep = input_errors.get(order[slot])
            error_free[slot] = ep is None or (ep.p01 == 0.0
                                              and ep.p10 == 0.0)
        #: Fanin slots by gate slot (zero-padded), and each gate's row in
        #: the (gates, E) local-failure matrices.
        self._fanin = np.zeros(
            (len(order), max([1] + [node.arity for node in nodes])),
            dtype=np.intp)
        self._eps_row = np.full(len(order), -1, dtype=np.intp)
        for row, gate in enumerate(self.gate_names):
            slot = self.index[gate]
            self._eps_row[slot] = row
            self._fanin[slot, :nodes[slot].arity] = [
                self.index[f] for f in nodes[slot].fanins]
        buckets = self._gate_buckets(nodes, error_free)

        plan_store = None
        cached_plan = None
        if cache_dir is not None:
            plan_store = _PlanStore(cache_dir, circuit, self.max_level_gap,
                                    self.max_pairs)
            cached_plan = plan_store.load()
        if cached_plan is not None and cached_plan["unsupported"]:
            raise CompiledPassUnsupported(
                f"correlated pair budget ({self.max_pairs}) exceeded for "
                f"{circuit.name!r} (cached plan)")
        table = _RowTable(self.structure, is_logic, self.max_level_gap
                          if cached_plan is None else cached_plan["level_gap"])
        if cached_plan is not None:
            # Seed the row table so discovery finds every row numbered;
            # the rounds below still resolve and lower every program.
            table.seed(cached_plan["pairs"])
        try:
            found = self._discover(table, buckets)
        except CompiledPassUnsupported:  # never for a cached plan
            found = None
        return (found, table, is_logic, buckets, plan_store,
                cached_plan is not None)

    def _name_pairs(self, table: _RowTable,
                    plan_store: Optional[_PlanStore]) -> None:
        """Name the expansion rows' canonical pair keys, sorted by wire
        names (the deterministic iteration contract of
        ``ErrorCorrelationEngine.coefficient_items``), and store the pair
        table when ``plan_store`` is given."""
        order = self.node_names
        pa, pea, pb, peb = table.decode(table.keys)
        name_rank = np.empty(len(order), dtype=np.intp)
        name_rank[sorted(range(len(order)), key=order.__getitem__)] = \
            np.arange(len(order))
        by_name = np.lexsort((peb, name_rank[pb], pea, name_rank[pa]))
        pa, pea, pb, peb = pa[by_name], pea[by_name], pb[by_name], peb[by_name]
        if plan_store is not None:
            plan_store.save(pairs=np.stack([pa, pea, pb, peb], axis=1),
                            level_gap=table.gap)
        names = np.asarray(order, dtype=object)
        self.n_pair_rows = len(table.keys)
        self.pair_keys: List[Tuple[str, int, str, int]] = list(zip(
            names[pa].tolist(), pea.tolist(), names[pb].tolist(),
            peb.tolist()))
        self._pair_rows_order = table.rows[by_name]

    def _gate_buckets(self, nodes, error_free: np.ndarray
                      ) -> List[_GateBucket]:
        """Bucket the gates by their lowering template key (truth, arity,
        active vectors, error-free fanins); records each gate slot's
        bucket in ``_bucket_of`` and each bucket's key in
        ``_bucket_keys``."""
        by_class: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
        for gate in self.gate_names:
            slot = self.index[gate]
            node = nodes[slot]
            by_class.setdefault((truth_table(node.gate_type, node.arity),
                                 node.arity), []).append(slot)
        buckets: List[_GateBucket] = []
        self._bucket_of = np.full(len(nodes), -1, dtype=np.intp)
        for (truth, k), slots in by_class.items():
            slots = np.asarray(slots, dtype=np.intp)
            w = np.stack([np.asarray(self.weights.weights[nodes[s].name],
                                     dtype=np.float64) for s in slots])
            errfree = (error_free[self._fanin[slots, :k]]
                       << np.arange(k)).sum(axis=1)
            split: Dict[tuple, List[int]] = {}
            for i, key in enumerate(zip(_active_masks(w), errfree.tolist())):
                split.setdefault(key, []).append(i)
            for (active, ef), members in split.items():
                sel = slots[members]
                self._bucket_of[sel] = len(buckets)
                buckets.append(_GateBucket(truth, k, active, ef, sel,
                                           w[members]))
        self._bucket_keys = [(b.truth, b.k, b.active, b.errfree)
                             for b in buckets]
        return buckets

    def _fit(self, is_logic: np.ndarray, buckets: List[_GateBucket]
             ) -> int:
        """The widest level gap below ``max_level_gap`` whose closure fits
        ``max_pairs``, or :class:`CompiledPassUnsupported` if gap 0's
        does not.  Closures grow with the gap, so one table grows through
        the gaps (:meth:`_RowTable.widen`) until it passes the budget."""
        table = _RowTable(self.structure, is_logic, 0, fitting=True)
        self._discover(table, buckets)
        try:
            while table.widen(self.max_level_gap):
                self._discover(table, buckets)
        except CompiledPassUnsupported:
            return table.gap - 1
        return table.gap

    def _discover(self, table: _RowTable, buckets: List[_GateBucket]
                  ) -> Dict[tuple, List[tuple]]:
        """Close the pair set, one frontier round at a time.

        Returns ``{(bucket, side): [(a, b, eb, row, resolved), ...]}``:
        each discovered member (a gate, side None; or expansion row
        ``(a, side | b, eb)``) with its template's row queries resolved,
        shape (members, specs).  Raises :class:`CompiledPassUnsupported`
        as soon as a round takes the closure past ``max_pairs``.
        """
        found: Dict[tuple, List[tuple]] = {}
        frontier = [(i, None, bucket.slots, None, None, None)
                    for i, bucket in enumerate(buckets)]
        while frontier:
            for key, member in self._resolve(table, buckets, frontier):
                found.setdefault(key, []).append(member)
            self.n_rows = table.n_rows
            self.num_batches = len(found)
            if len(table.keys) > self.max_pairs:
                raise CompiledPassUnsupported(
                    f"correlated pair budget ({self.max_pairs}) exceeded "
                    f"while lowering {self.circuit.name!r}; use the scalar "
                    "pass")
            a, ea, b, eb, rows = table.take_new()
            key = self._bucket_of[a] * 2 + ea
            frontier = [(int(key[sel[0]]) // 2, int(key[sel[0]]) % 2,
                         a[sel], b[sel], eb[sel], rows[sel])
                        for sel in _split_by(key)]
        return found

    def _resolve(self, table: _RowTable, buckets: List[_GateBucket],
                 batches: List[tuple], create: bool = True):
        """Resolve every batch's row queries in one :meth:`_RowTable.
        resolve` call.

        A batch is ``(bucket, side, a, b, eb, rows)``: gates ``a`` of a
        bucket (side None), or expansion rows ``(a, side | b, eb)``.
        Returns ``[((bucket, side), (a, b, eb, rows, resolved))]`` with
        ``resolved`` shaped (members, specs), or None when ``create`` is
        off and a query needs a row the table does not have.
        """
        if not batches:
            return []
        fanin = self._fanin
        queries = []
        for bid, side, a, b, eb, _ in batches:
            tl = buckets[bid].template(side)
            f = fanin[a]
            ka = 2 * f[:, tl.spec_a] + tl.spec_ea
            kb = 2 * f[:, np.maximum(tl.spec_b, 0)] + tl.spec_eb
            if side is not None:
                # Conditioning queries (spec_b < 0) read (b, eb).
                kb = np.where(tl.spec_b < 0, (2 * b + eb)[:, None], kb)
            queries.append((ka.ravel(), kb.ravel(), ka.shape))
        resolved = table.resolve(np.concatenate([q[0] for q in queries]),
                                 np.concatenate([q[1] for q in queries]),
                                 create)
        if resolved is None:
            return None
        resolved = np.split(resolved,
                            np.cumsum([len(q[0]) for q in queries])[:-1])
        return [((bid, side), (a, b, eb, rows, res.reshape(q[2])))
                for (bid, side, a, b, eb, rows), q, res
                in zip(batches, queries, resolved)]

    def _lower(self, found: Dict[tuple, List[tuple]],
               buckets: List[_GateBucket], sources: bool = False):
        """Lower every (bucket, side) batch to member, program and term
        arrays.

        Returns ``(members, programs, terms, forms, reads, plain)``:

        * ``members`` — ``(targets, eps_rows, levels, ea, totals,
          marginals)``: a corrected gate (``ea = -1``, side totals W(0),
          W(1)) or an expansion row (its side ``ea``, W(ea) twice, and the
          flat state reads of the marginal of ``a`` and of ``b``);
        * ``programs`` — ``(member, side, terms, weight, vector)`` per
          active input vector, member-major in ascending-vector order (the
          scalar accumulation order); ``vector`` is None unless
          ``sources``;
        * ``terms`` — per form id, ``(program, rank, state, rows)`` of its
          perturbation terms, operands laid out as :class:`_Form` says;
        * ``forms`` — the :class:`_Form` of each id; ``reads`` — the
          ``(expansion row, row read)`` edges; ``plain`` — slots of gates
          that read no nontrivial row (the plain kernel's share).

        The loop over batches only resolves operands and records each
        keep pattern's term tables; members, programs and terms are then
        expanded for all batches at once.
        """
        stride = self.state_rows
        # Per batch: member columns; its (members, operands) state reads,
        # spec rows and program weights; its template.
        batches: List[tuple] = []
        state, spec_rows, weights, templates = [], [], [], []
        # Per form key: (batch, members, term table) of each keep pattern.
        parts: Dict[tuple, List[tuple]] = {}
        plain: List[np.ndarray] = []
        for (bid, side), found_batches in found.items():
            bucket = buckets[bid]
            tl = bucket.template(side)
            a, b, eb, rows, resolved = (
                None if cols[0] is None else np.concatenate(cols)
                for cols in zip(*found_batches))
            keep = resolved != ROW_ONE
            if side is None:
                corrected = keep.any(axis=1)
                if not corrected.all():
                    plain.append(a[~corrected])
                    a, resolved, keep = (a[corrected], resolved[corrected],
                                         keep[corrected])
                    if not len(a):
                        continue
                b, eb, rows = a, np.zeros_like(a), np.full_like(a, -1)
            w = bucket.weights[np.searchsorted(bucket.slots, a)]
            if side is None:
                totals = np.stack([_side_total(w, tl.side_vectors[0]),
                                   _side_total(w, tl.side_vectors[1])],
                                  axis=1)
            else:  # an expansion's one side total fills both columns
                totals = np.repeat(
                    _side_total(w, tl.side_vectors[side])[:, None], 2,
                    axis=1)
            for sel in _split_rows(keep):
                for key, table in tl.forms(keep[sel[0]]).items():
                    parts.setdefault(key, []).append(
                        (len(batches), sel) + table)
            batches.append((
                a, b, eb, rows, np.full(len(a), -1 if side is None else side),
                totals))
            state.append(tl.state_ev * stride
                         + self._fanin[a][:, tl.state_pos])
            spec_rows.append(resolved)
            weights.append(w[:, tl.vectors])
            templates.append(tl)
        if not batches:
            return None, None, None, None, None, plain
        a, b, eb, rows, ea, totals = _concat_columns(batches)
        expand = ea >= 0
        levels = self.structure.slot_levels
        # (A gate's marginals are never read.)
        members = (np.where(expand, rows, a), self._eps_row[a],
                   np.maximum(levels[a], levels[b]), ea, totals,
                   np.stack([np.maximum(ea, 0) * stride + a,
                             eb * stride + b], axis=1))

        # Programs, member-major: every member of batch k runs all of its
        # template's programs, in order.
        n_member = np.asarray([len(x) for x in state], dtype=np.intp)
        m_first = _starts(n_member)
        m_batch = np.repeat(np.arange(len(state)), n_member)
        m_local = np.arange(len(a)) - m_first[m_batch]
        n_prog = np.asarray([len(tl.sides) for tl in templates],
                            dtype=np.intp)
        m_prog = n_prog[m_batch]
        p_member = np.repeat(np.arange(len(a)), m_prog)
        p_first = _starts(m_prog)
        table = (_starts(n_prog)[m_batch[p_member]]
                 + np.arange(len(p_member)) - p_first[p_member])
        programs = (p_member,
                    np.concatenate([tl.sides for tl in templates])[table],
                    np.concatenate([tl.counts for tl in templates])[table],
                    np.concatenate([x.ravel() for x in weights]),
                    np.concatenate([tl.vectors for tl in templates])[table]
                    if sources else None)

        # Terms: each part's members crossed with its term table, operands
        # read from the members' rows of the flattened state / spec rows.
        def row_starts(arrays):
            width = np.asarray([x.shape[1] for x in arrays])
            return (_starts([x.size for x in arrays])[m_batch]
                    + m_local * width[m_batch]), width[m_batch]

        m_state, _ = row_starts(state)
        m_spec, m_specs = row_starts(spec_rows)
        state = np.concatenate([x.ravel() for x in state])
        spec_rows = np.concatenate([x.ravel() for x in spec_rows])
        forms, terms = [], []
        for (flags, n_pairs, chains), form_parts in parts.items():
            forms.append(_Form(len(flags),
                               tuple(t for t, f in enumerate(flags) if f),
                               n_pairs, chains))
            k, sel, prog, rank, scols, rcols = zip(*form_parts)
            n_sel = np.asarray([len(x) for x in sel])
            n_term = np.asarray([len(x) for x in prog])
            # Term tables: (terms, operands) — terms of one form share
            # their operand counts.
            prog, rank, scols, rcols = (
                np.asarray(list(chain.from_iterable(x)), dtype=np.intp)
                for x in (prog, rank, scols, rcols))
            # Member m of a part runs every row of the part's table.
            mem = (np.repeat(m_first.take(k), n_sel) + np.concatenate(sel))
            mem_terms = np.repeat(n_term, n_sel)
            m = np.repeat(mem, mem_terms)
            row = np.repeat(np.repeat(_starts(n_term), n_sel)
                            - _starts(mem_terms), mem_terms)
            row += np.arange(len(row))
            terms.append((
                p_first.take(m) + prog.take(row), rank.take(row),
                state.take(m_state.take(m)[:, None]
                           + scols.take(row, axis=0)),
                spec_rows.take(m_spec.take(m)[:, None]
                               + rcols.take(row, axis=0))))
        read = np.repeat(expand, m_specs)
        reads = (np.repeat(members[0], m_specs)[read], spec_rows[read])
        return members, programs, terms, forms, reads, plain

    def _lay_out(self, found, buckets, circuit: Circuit,
                 weights: WeightData, w_off: Optional[np.ndarray] = None,
                 wave: Optional[np.ndarray] = None) -> Dict[int, tuple]:
        """Lower discovered members and lay their steps out by level.

        Returns ``{level: (plain groups, gate step, expansion waves)}``.
        Per level the schedule runs the plain groups, then the
        corrected-gate step (state of level L is final after it), then the
        level's same-wire rows as one batch (state reads only, see
        :meth:`_same_by_level`), then one step per expansion wave.  An
        expansion row reads rows of lower levels, or rows of its own level
        whose canonical later wire is strictly topologically earlier; its
        wave is one past the deepest same-level row it reads.  ``w_off``
        (a patch's flat weight offsets) makes every step record where its
        weights and side totals come from; ``wave`` (per row) sets the
        least wave of each row.
        """
        members, programs, terms, forms, reads, plain = self._lower(
            found, buckets, sources=w_off is not None)
        steps: List[Tuple[int, _Step]] = []
        if members is not None:
            steps = self._steps(members, programs, terms, forms, reads,
                                w_off, wave)
        plain_levels = _lower_plain_groups(
            circuit, weights, self.index, self._gate_row,
            [self.node_names[s]
             for s in np.sort(np.concatenate(plain)).tolist()]
            if plain else [], self.max_arity)
        laid = {lv: (tuple(groups), None, ())
                for lv, groups in plain_levels.items()}
        for level, st in steps:
            groups, gate_step, waves = laid.get(level, _NO_STEPS)
            laid[level] = ((groups, st, waves) if st.kind == "gate"
                           else (groups, gate_step, waves + (st,)))
        return laid

    def _same_by_level(self, table: _RowTable) -> Dict[int, tuple]:
        """``{level: (rows, flat state reads)}`` of the same-wire rows."""
        same_flat = np.flatnonzero(table.same_row >= 0)
        same_level = self.structure.slot_levels[same_flat % self.state_rows]
        same_by_level = {}
        for sel in _split_by(same_level):
            flat = same_flat[sel]
            same_by_level[int(same_level[sel[0]])] = (table.same_row[flat],
                                                      flat)
        return same_by_level

    def _schedule_steps(self, levels=None):
        """The steps of the schedule (of ``levels`` only, if given)."""
        for _, gate_step, _, waves in (
                self._schedule if levels is None
                else [self._schedule[self._level_pos[lv]] for lv in levels]):
            if gate_step is not None:
                yield gate_step
            yield from waves

    def _count_schedule(self) -> None:
        steps = list(self._schedule_steps())
        #: Batched correlated ops per sweep: one per perturbation form of
        #: each step, one per step tail, one per same-wire level batch.
        self.num_corr_groups = (
            sum(len(st.forms) + 1 for st in steps)
            + sum(entry[2] is not None for entry in self._schedule))
        #: Largest per-column operand count of a step (sizes the sweep's
        #: column blocks).
        self._step_operands = max((st.n_operands for st in steps),
                                  default=0)

    def _steps(self, members, programs, terms, forms, reads,
               w_off: Optional[np.ndarray] = None,
               wave: Optional[np.ndarray] = None
               ) -> List[Tuple[int, _Step]]:
        """``(level, step)`` in execution order, built as array ops (with
        each step's weight and total sources when ``w_off`` is given)."""
        target, eps_row, level, ea, totals, marginals = members
        p_member, p_side, p_count, p_weight, p_vector = programs
        n_members = len(target)
        expand = ea >= 0
        # Waves: longest same-level read chain, relaxed until nothing
        # deepens.
        wave = (np.zeros(self.n_rows, dtype=np.intp) if wave is None
                else wave.copy())
        parent, child = reads
        if len(parent):
            row_level = np.full(self.n_rows, -1, dtype=np.intp)
            row_level[target[expand]] = level[expand]
            link = row_level[child] == row_level[parent]
            parent, child = parent[link], child[link]
            while True:
                deeper = wave[child] + 1 > wave[parent]
                if not deeper.any():
                    break
                np.maximum.at(wave, parent[deeper], wave[child[deeper]] + 1)
        phase = np.zeros(n_members, dtype=np.intp)
        phase[expand] = 1 + wave[target[expand]]
        n_phases = int(phase.max()) + 1
        key = level * n_phases + phase
        present = np.bincount(key) > 0
        keys = np.flatnonzero(present)
        m_step = (np.cumsum(present) - 1)[key]
        n_steps = len(keys)

        # Programs, rank-major by term count: pert rounds.
        p_step = m_step[p_member]
        v_pos, v_cnt, v_off = _rank_major(p_step, p_count, n_steps)
        # (member, side) slots, rank-major by program count: side rounds.
        # Programs are member-major, so a program's rank in its slot is
        # the count of earlier same-side programs of its member.
        p_first = _starts(np.bincount(p_member, minlength=n_members))
        first = p_first[p_member]
        ones = np.cumsum(p_side)
        ones_before = (ones - p_side)[first]
        p_rank = np.where(p_side == 1, ones - 1 - ones_before,
                          np.arange(len(p_side)) - first
                          - (ones - ones_before))
        s_count = np.bincount(p_member * 2 + p_side, minlength=2 * n_members)
        s_pos, s_cnt, s_off = _rank_major(np.repeat(m_step, 2), s_count,
                                          n_steps)
        p_start = _starts(np.bincount(p_step, minlength=n_steps))
        at = (p_start[p_step] + s_off[p_step, p_rank]
              + s_pos[p_member * 2 + p_side])
        to_side = np.empty(len(p_step), dtype=np.intp)
        to_side[at] = v_pos
        weights = np.empty((len(p_step), 1), dtype=np.float64)
        weights[at, 0] = p_weight
        if w_off is not None:
            # A member's wire: the gate itself, or an expansion's ``a``.
            wire = marginals[:, 0] % self.state_rows
            w_src = np.empty(len(p_step), dtype=np.intp)
            w_src[at] = w_off[wire[p_member]] + p_vector

        # Terms: form blocks per step (T), and their rank-major order.
        n_forms = len(forms)
        t_step = [p_step[prog] for prog, _, _, _ in terms]
        n_block = np.zeros((n_steps, n_forms), dtype=np.intp)
        for f, ts in enumerate(t_step):
            n_block[:, f] = np.bincount(ts, minlength=n_steps)
        t_block = np.cumsum(n_block, axis=1) - n_block
        t_start = _starts(n_block.sum(axis=1))
        to_rank = np.empty(int(n_block.sum()), dtype=np.intp)
        s_size = n_block * [f.n_state for f in forms]
        r_size = n_block * [f.n_rows for f in forms]
        s_block = _starts(s_size.ravel()).reshape(n_steps, n_forms)
        r_block = _starts(r_size.ravel()).reshape(n_steps, n_forms)
        state = np.empty(int(s_size.sum()), dtype=np.intp)
        rows = np.empty(int(r_size.sum()), dtype=np.intp)
        for f, (prog, rank, t_state, t_rows) in enumerate(terms):
            ts = t_step[f]
            # Index of each term among its step's terms of this form.
            within = np.empty(len(ts), dtype=np.intp)
            within[_stable_order(ts, n_steps)] = np.arange(len(ts))
            within -= _starts(n_block[:, f])[ts]
            to_rank[t_start[ts] + v_off[ts, rank] + v_pos[prog]] = (
                t_block[:, f][ts] + within)
            n = n_block[:, f][ts][:, None]
            state[(s_block[:, f][ts] + within)[:, None]
                  + np.arange(t_state.shape[1]) * n] = t_state
            rows[(r_block[:, f][ts] + within)[:, None]
                 + np.arange(t_rows.shape[1]) * n] = t_rows

        # Member tails, in step order: each side's slot row (0 when the
        # side has no programs), mask and weight total.
        order = _stable_order(m_step, n_steps)
        side = np.where(expand[:, None], ea[:, None], np.arange(2))
        slot = (np.arange(n_members)[:, None] * 2 + side)[order]
        exists = s_count[slot] > 0
        m_slot = np.where(exists, s_pos[slot], 0).T
        m_mask = (exists & (totals[order] > 0.0)).T[:, :, None]
        m_den = np.where(m_mask, totals[order].T[:, :, None], 1.0)
        if w_off is not None:
            d_src = (2 * wire[:, None] + side)[order].T[:, :, None]
        target, eps_row, ea = target[order], eps_row[order], ea[order]
        ea1 = (ea == 1)[:, None]
        marginals = marginals[order].T
        m_start = _starts(np.bincount(m_step, minlength=n_steps)).tolist()
        m_start.append(n_members)
        step_state = _starts(s_size.sum(axis=1))
        step_rows = _starts(r_size.sum(axis=1))
        # Per (step, form) block: (form, n, state offset, row offset, T
        # offset), offsets local to the step.
        block_s, block_f = np.nonzero(n_block)
        step_forms: List[list] = [[] for _ in range(n_steps)]
        for s, f, *block in zip(
                block_s.tolist(), block_f.tolist(),
                n_block[block_s, block_f].tolist(),
                (s_block - step_state[:, None])[block_s, block_f].tolist(),
                (r_block - step_rows[:, None])[block_s, block_f].tolist(),
                t_block[block_s, block_f].tolist()):
            step_forms[s].append((forms[f], *block))
        step_state = step_state.tolist() + [len(state)]
        step_rows = step_rows.tolist() + [len(rows)]
        pert_rounds = [_rounds(c, o) for c, o in zip(v_cnt.tolist(),
                                                     v_off.tolist())]
        side_rounds = [_rounds(c, o) for c, o in zip(s_cnt.tolist(),
                                                     s_off.tolist())]
        t_start = t_start.tolist() + [len(to_rank)]
        p_start = p_start.tolist() + [len(to_side)]
        levels = (keys // n_phases).tolist()
        steps = []
        for s in range(n_steps):
            lo, hi = m_start[s], m_start[s + 1]
            gate = ea[lo] < 0
            sides = slice(None) if gate else slice(0, 1)
            steps.append((levels[s], _Step(
                kind="gate" if gate else "expand",
                state=state[step_state[s]:step_state[s + 1]],
                rows=rows[step_rows[s]:step_rows[s + 1]],
                forms=tuple(step_forms[s]),
                n_terms=t_start[s + 1] - t_start[s],
                to_rank=to_rank[t_start[s]:t_start[s + 1]],
                pert_rounds=pert_rounds[s],
                to_side=to_side[p_start[s]:p_start[s + 1]],
                weights=weights[p_start[s]:p_start[s + 1]],
                side_rounds=side_rounds[s],
                targets=target[lo:hi],
                eps_rows=eps_row[lo:hi],
                slots=m_slot[sides, lo:hi],
                mask=m_mask[sides, lo:hi],
                den=m_den[sides, lo:hi],
                ea1=None if gate else ea1[lo:hi],
                marginals=None if gate else marginals[:, lo:hi],
                w_src=(None if w_off is None
                       else w_src[p_start[s]:p_start[s + 1]]),
                d_src=None if w_off is None else d_src[sides, lo:hi])))
        return steps

    # -- in-place patching ---------------------------------------------
    def patch_weights(self, circuit: Circuit, weights: WeightData,
                      changed_gates: Sequence[str] = (),
                      retruthed_gates: Sequence[str] = ()) -> bool:
        """Update the plan in place after a type-only edit.

        The contract of :meth:`CompiledSinglePass.patch_weights`:
        ``changed_gates`` have new weight vectors, ``retruthed_gates`` a
        new truth table.  A member whose lowering template is unchanged —
        a dirty gate, or an expansion row whose later wire is one — keeps
        its programs and rows, so only its values are rewritten: program
        weights, side totals and plain-group columns.  A gate whose
        template changed (a retruthed gate, or one whose active vectors
        changed) re-resolves its queries and its expansion rows' against
        the plan's row numbering, and only the steps holding them are
        laid out again (see :mod:`repro.reliability.plan_patch`).  The
        patched plan answers as a fresh compile does, byte for byte.

        Returns False when the patch cannot prove the pair closure
        unchanged: the node set or order differs, the plan was fitted to
        a level gap (an edit can move the fit), a query needs a row the
        plan does not have, or a row is read by nothing any more.  The
        plan is then left as it was, and the caller re-lowers it.
        """
        with trace_span("compiled_pass.patch_correlated",
                        circuit=circuit.name) as span:
            from .plan_patch import patch
            fallback, members, levels = patch(
                self, circuit, weights, changed_gates, retruthed_gates)
            span.set(members=members, levels=levels,
                     fallback=fallback or "none")
        if fallback is None and obs_metrics.is_enabled():
            obs_metrics.inc("compiled_pass.correlated_patches",
                            circuit=circuit.name)
        return fallback is None

    # -- execution ------------------------------------------------------
    def _run_schedule(self, P: np.ndarray, C: np.ndarray,
                      Eps: np.ndarray) -> None:
        """Run every level's plain groups, gate step, same-wire batch and
        expansion waves over the columns of ``P`` / ``C`` / ``Eps``."""
        flat = P.reshape(-1, P.shape[-1])
        for plain_groups, gate_step, same, waves in self._schedule:
            for group in plain_groups:
                _eval_group(group, P, Eps)
            if gate_step is not None:
                _run_step(gate_step, flat, P, C, Eps)
            if same is not None:
                rows, state = same
                pval = flat.take(state, axis=0)
                big = pval > 1e-9
                C[rows] = np.where(
                    big,
                    np.minimum(1.0 / np.where(big, pval, 1.0), 1e9),
                    np.where(pval > 0.0, 1e9, 1.0))
            for st in waves:
                _run_step(st, flat, P, C, Eps)

    def run(self, eps: EpsilonSpec,
            eps10: Optional[EpsilonSpec] = None) -> SweepResult:
        """One-point convenience wrapper around :meth:`run_sweep`."""
        return self.run_sweep([eps], None if eps10 is None else [eps10])

    def run_sweep(self, eps_specs: Sequence[EpsilonSpec],
                  eps10_specs: Optional[Sequence[EpsilonSpec]] = None
                  ) -> SweepResult:
        """Evaluate the corrected pass for every eps point at once."""
        specs, eps10_list = validate_sweep_specs(self.circuit, eps_specs,
                                                 eps10_specs)
        n_points = len(specs)
        with trace_span("compiled_pass.run_sweep_correlated",
                        circuit=self.circuit.name, points=n_points,
                        groups=self.num_corr_groups):
            P, Eps, _ = _packed_state([self], [(specs, eps10_list)],
                                      np.float64)
            width = P.shape[2]
            C = np.empty((self.n_rows, width), dtype=np.float64)
            C[ROW_ONE] = 1.0
            C[ROW_ZERO] = 0.0
            # Columns never couple, so a wide sweep runs in column blocks
            # (each at least two wide) that keep every step's gathered
            # operands near _CHUNK_ELEMENTS.
            chunk = max(2, _CHUNK_ELEMENTS // max(1, self._step_operands))
            if width <= chunk:
                self._run_schedule(P, C, Eps)
            else:
                for cols in np.array_split(np.arange(width), width // chunk):
                    cols = slice(cols[0], cols[-1] + 1)
                    Pc = np.ascontiguousarray(P[:, :, cols])
                    Cc = np.ascontiguousarray(C[:, cols])
                    self._run_schedule(Pc, Cc, Eps[:, :, cols])
                    P[:, :, cols] = Pc
                    C[:, cols] = Cc
            p01, p10 = P[:, :-1, :n_points].copy()
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
