"""Multi-circuit tensor kernel: one padded sweep over a batch of plans.

The compiled single-circuit kernel (:class:`~repro.reliability.
compiled_pass.CompiledSinglePass`) already evaluates every eps point of
one circuit in a single level-scheduled array pass.  Production traffic,
though, is many *different* circuits at once — and N back-to-back kernel
invocations serialize on the GIL, repay the per-group dispatch overhead
N times, and run each circuit's (often small) gate batches far below the
vector widths the arrays could sustain.

:class:`TensorBatch` removes the per-circuit axis from the dispatch.  It
pads a batch of compiled plans into one ``(circuit, row, eps)`` state
tensor and merges their level schedules:

* circuits are aligned by topological level **position** — level ``i``
  of the merged schedule runs level ``i`` of every plan that has one
  (correct because circuits are independent: a gate only ever reads
  state of its own circuit's earlier levels);
* within a level, :class:`~repro.reliability.compiled_pass._OpGroup`\\ s
  are merged per ``(truth, arity)`` class across circuits — slot /
  fanin / weight columns concatenated, plus a **circuit-index column**
  (``_OpGroup.circ``) that routes each gate's reads and writes to its
  circuit's plane of the state tensor.  The class's shared ``bits`` /
  ``flip_mask`` tensors appear once, so a NAND2 from circuit 3 and a
  NAND2 from circuit 11 evaluate in the same einsum;
* the row axis is padded to the widest circuit; pad rows are **inactive
  by construction** — no merged group ever indexes them, so they stay
  at their zero initialization and masking is free (the waste is
  surfaced as :attr:`pad_waste_rows`);
* eps batches of different lengths are padded by replicating each
  circuit's last column; pad columns compute harmless duplicate values
  that are sliced away before results are returned.

Gate-level arithmetic is byte-for-byte the single-circuit kernel's —
:func:`~repro.reliability.compiled_pass._eval_group` is shared, with the
circuit column enabling 3-D fancy indexing — so per-circuit results
match solo sweeps to float rounding (pinned ≤ 1e-10 over the full
catalog by ``tests/test_tensor_pass.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..spec import EpsilonSpec, validate_sweep_specs
from .compiled_pass import (
    CompiledSinglePass,
    SweepResult,
    _eps_matrix,
    _eval_group,
    _OpGroup,
)

#: Widest gate fused across truth classes with a per-gate flip mask —
#: beyond it the mask's ``4**k`` floats per gate outweigh the dispatch
#: saving and wide gates fall back to the shared-mask (truth, arity)
#: merge.
_FUSE_MAX_ARITY = 6


class TensorBatch:
    """A batch of :class:`CompiledSinglePass` plans merged for one sweep.

    Construct once per batch composition; :meth:`run_sweep` then
    evaluates per-circuit eps batches in a single level-scheduled pass.
    The merge is pure bookkeeping over the plans' already-lowered arrays
    (no re-lowering, no weight recomputation), so building a
    ``TensorBatch`` is cheap relative to even one sweep.

    Parameters
    ----------
    plans:
        Compiled single-pass plans (independence kernel only — the
        correlated kernel's coefficient rows are per-circuit state and
        do not batch).  Order is preserved: result ``i`` of
        :meth:`run_sweep` belongs to ``plans[i]``.
    dtype:
        Override accumulator precision; default requires every plan to
        agree and uses that common dtype.
    """

    def __init__(self, plans: Sequence[CompiledSinglePass],
                 dtype: Optional[np.dtype] = None):
        if not plans:
            raise ValueError("TensorBatch requires at least one plan")
        for plan in plans:
            if not isinstance(plan, CompiledSinglePass):
                raise TypeError(
                    "TensorBatch batches CompiledSinglePass plans; got "
                    f"{type(plan).__name__} (the correlated kernel does "
                    "not batch across circuits)")
        if dtype is None:
            dtypes = {plan.dtype for plan in plans}
            if len(dtypes) > 1:
                raise ValueError(
                    "plans disagree on dtype "
                    f"({sorted(d.name for d in dtypes)}); pass dtype= "
                    "explicitly to re-cast")
            dtype = next(iter(dtypes))
        self.dtype = np.dtype(dtype)
        self.plans: List[CompiledSinglePass] = list(plans)

        with trace_span("tensor_pass.merge", circuits=len(self.plans)):
            self._merge()
        if obs_metrics.is_enabled():
            obs_metrics.inc("tensor_pass.merges")
            obs_metrics.set_gauge("tensor_pass.batch_circuits",
                                  self.n_circuits)
            obs_metrics.set_gauge("tensor_pass.pad_waste_rows",
                                  self.pad_waste_rows)

    # ------------------------------------------------------------------
    @property
    def n_circuits(self) -> int:
        return len(self.plans)

    def _merge(self) -> None:
        plans = self.plans
        #: Row extent of the padded state tensor (widest circuit).
        self.n_rows = max(len(p.node_names) for p in plans)
        #: Pad rows across the whole batch — the cost of rectangularity.
        self.pad_waste_rows = sum(self.n_rows - len(p.node_names)
                                  for p in plans)
        #: Row offset of each circuit in the merged (gates_total, E)
        #: local-failure matrices.
        self.gate_offsets: List[int] = []
        total = 0
        for p in plans:
            self.gate_offsets.append(total)
            total += len(p.gate_names)
        self.n_gate_rows = total

        # Merge level schedules by position; within a position, fuse
        # groups across circuits.  Narrow gates (the overwhelming
        # majority) fuse per *arity* with a per-gate (m, V, V) flip mask
        # — ``bits`` depends only on the arity, so gates of different
        # truth classes share one einsum once the mask rides along per
        # gate.  Wide gates keep the shared-mask (truth, arity) merge:
        # their per-gate masks would cost ``V**2`` floats each.
        # Iteration is plans-in-order then sorted fuse keys, so the
        # merged schedule (and therefore the float accumulation order
        # inside each einsum) is deterministic per batch composition.
        n_levels = max(len(p.levels) for p in plans)
        merged: List[List[_OpGroup]] = []
        for li in range(n_levels):
            classes: Dict[tuple, Dict] = {}
            for ci, plan in enumerate(plans):
                if li >= len(plan.levels):
                    continue
                for group in plan.levels[li]:
                    fused = group.arity <= _FUSE_MAX_ARITY
                    key = ((0, group.arity) if fused
                           else (1, group.arity, group.truth))
                    entry = classes.get(key)
                    if entry is None:
                        entry = {"template": group, "fused": fused,
                                 "slots": [], "eps_rows": [], "fanins": [],
                                 "circ": [], "masks": [],
                                 "wm0": [], "wm1": [], "ws0": [], "ws1": []}
                        classes[key] = entry
                    m = len(group.slots)
                    entry["slots"].append(group.slots)
                    entry["eps_rows"].append(
                        group.eps_rows + self.gate_offsets[ci])
                    entry["fanins"].append(group.fanin_slots)
                    entry["circ"].append(np.full(m, ci, dtype=np.intp))
                    if fused:
                        entry["masks"].append(
                            np.repeat(group.flip_mask[None], m, axis=0))
                    entry["wm0"].append(group.w_masked0)
                    entry["wm1"].append(group.w_masked1)
                    entry["ws0"].append(group.w_side0)
                    entry["ws1"].append(group.w_side1)
            level_groups: List[_OpGroup] = []
            for key in sorted(classes):
                entry = classes[key]
                template: _OpGroup = entry["template"]
                flip_mask = (np.concatenate(entry["masks"], axis=0)
                             if entry["fused"] else template.flip_mask)
                level_groups.append(_OpGroup(
                    arity=template.arity,
                    slots=np.concatenate(entry["slots"]),
                    eps_rows=np.concatenate(entry["eps_rows"]),
                    fanin_slots=np.concatenate(entry["fanins"], axis=0),
                    bits=template.bits,
                    flip_mask=np.ascontiguousarray(flip_mask),
                    w_masked0=np.ascontiguousarray(
                        np.concatenate(entry["wm0"], axis=1)),
                    w_masked1=np.ascontiguousarray(
                        np.concatenate(entry["wm1"], axis=1)),
                    w_side0=np.concatenate(entry["ws0"]),
                    w_side1=np.concatenate(entry["ws1"]),
                    truth=None if entry["fused"] else template.truth,
                    circ=np.concatenate(entry["circ"]),
                ))
            merged.append(level_groups)
        self.levels: List[List[_OpGroup]] = merged
        self.num_groups = sum(len(g) for g in merged)
        #: Groups a sequential run would dispatch — the batching win.
        self.unmerged_groups = sum(p.num_groups for p in plans)

    # ------------------------------------------------------------------
    def run_sweep(self,
                  eps_specs: Sequence[Sequence[EpsilonSpec]],
                  eps10_specs: Optional[
                      Sequence[Optional[Sequence[EpsilonSpec]]]] = None,
                  ) -> List[SweepResult]:
        """Evaluate one eps batch per circuit in a single merged pass.

        ``eps_specs[i]`` is the sweep batch for ``plans[i]`` (the same
        scalars or per-gate maps :meth:`CompiledSinglePass.run_sweep`
        takes); batches may have different lengths — shorter ones are
        padded to the longest by replicating their last point and the
        pad columns are dropped from the returned results.
        ``eps10_specs``, when given, is a parallel sequence of optional
        asymmetric-channel batches.  Returns one :class:`SweepResult`
        per plan, in order, identical in shape and content to a solo
        :meth:`CompiledSinglePass.run_sweep` call.
        """
        plans = self.plans
        if len(eps_specs) != len(plans):
            raise ValueError(
                f"expected {len(plans)} eps batches (one per circuit), "
                f"got {len(eps_specs)}")
        if eps10_specs is not None and len(eps10_specs) != len(plans):
            raise ValueError(
                f"expected {len(plans)} eps10 batches, got "
                f"{len(eps10_specs)}")

        validated: List[tuple] = []
        for i, plan in enumerate(plans):
            e10b = None if eps10_specs is None else eps10_specs[i]
            validated.append(validate_sweep_specs(
                plan.circuit, eps_specs[i], e10b))
        n_points = [len(specs) for specs, _ in validated]
        n_eps = max(n_points)
        any_eps10 = any(e10 is not None for _, e10 in validated)

        with trace_span("tensor_pass", circuits=self.n_circuits,
                        points=n_eps,
                        pad_waste_rows=self.pad_waste_rows):
            e01 = np.empty((self.n_gate_rows, n_eps), dtype=self.dtype)
            e10 = (np.empty((self.n_gate_rows, n_eps), dtype=self.dtype)
                   if any_eps10 else e01)
            for i, plan in enumerate(plans):
                specs, e10b = validated[i]
                off = self.gate_offsets[i]
                end = off + len(plan.gate_names)
                block = _eps_matrix(plan.gate_names, specs,
                                    dtype=self.dtype)
                e01[off:end, :n_points[i]] = block
                if n_points[i] < n_eps:
                    # Replicate the last point into the pad columns; the
                    # duplicates are sliced away below.
                    e01[off:end, n_points[i]:] = block[:, -1:]
                if any_eps10:
                    b10 = (block if e10b is None
                           else _eps_matrix(plan.gate_names, e10b,
                                            dtype=self.dtype))
                    e10[off:end, :n_points[i]] = b10
                    if n_points[i] < n_eps:
                        e10[off:end, n_points[i]:] = b10[:, -1:]

            p01 = np.zeros((self.n_circuits, self.n_rows, n_eps),
                           dtype=self.dtype)
            p10 = np.zeros((self.n_circuits, self.n_rows, n_eps),
                           dtype=self.dtype)
            for i, plan in enumerate(plans):
                for slot, ep in plan.input_error_rows:
                    p01[i, slot] = ep.p01
                    p10[i, slot] = ep.p10
            for level_groups in self.levels:
                for group in level_groups:
                    _eval_group(group, p01, p10,
                                e01[group.eps_rows], e10[group.eps_rows])

            results: List[SweepResult] = []
            for i, plan in enumerate(plans):
                specs, e10b = validated[i]
                n_nodes = len(plan.node_names)
                c01 = np.ascontiguousarray(p01[i, :n_nodes, :n_points[i]])
                c10 = np.ascontiguousarray(p10[i, :n_nodes, :n_points[i]])
                per_output = ((1.0 - plan.output_prob1)[:, None]
                              * c01[plan.output_slots]
                              + plan.output_prob1[:, None]
                              * c10[plan.output_slots])
                results.append(SweepResult(
                    circuit_name=plan.circuit.name,
                    eps_specs=specs,
                    eps10_specs=e10b,
                    node_names=list(plan.node_names),
                    outputs=list(plan.circuit.outputs),
                    per_output=per_output,
                    p01=c01,
                    p10=c10,
                    signal_prob=dict(plan.weights.signal_prob),
                    used_correlation=False,
                    correlation_pairs=np.zeros(n_points[i],
                                               dtype=np.int64),
                ))
        if obs_metrics.is_enabled():
            obs_metrics.inc("tensor_pass.sweeps")
            obs_metrics.inc("tensor_pass.circuit_sweeps", self.n_circuits)
            obs_metrics.inc("tensor_pass.points", sum(n_points))
        return results
