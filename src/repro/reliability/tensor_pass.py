"""Multi-circuit tensor kernel: one padded sweep over a batch of plans.

The compiled single-circuit kernel (:class:`~repro.reliability.
compiled_pass.CompiledSinglePass`) already evaluates every eps point of
one circuit in a single level-scheduled array pass.  Production traffic,
though, is many *different* circuits at once — and N back-to-back kernel
invocations serialize on the GIL, repay the per-group dispatch overhead
N times, and run each circuit's (often small) gate batches far below the
vector widths the arrays could sustain.

:class:`TensorBatch` removes the per-circuit axis from the dispatch.  It
lays a batch of compiled plans out in one stacked ``(2, circuits x
rows + 1, eps)`` state — one block of rows per circuit plus one
always-zero row — and merges their level schedules:

* circuits are aligned by topological level **position** — level ``i``
  of the merged schedule runs level ``i`` of every plan that has one
  (correct because circuits are independent: a gate only ever reads
  state of its own circuit's earlier levels);
* within a level, :class:`~repro.reliability.compiled_pass._OpGroup`\\ s
  are merged per arity across circuits (per ``(truth, arity)`` for wide
  gates) — slot / fanin / weight columns concatenated, each circuit's
  row offset folded into its slot and fanin indices.  Arity-1 gates are
  lowered as 2-input gates reading the zero row (exact: the extra lanes
  only multiply by 1.0 or add 0.0), so a level of NOT/BUF and 2-input
  gates is one group, and a NAND2 from circuit 3 and a NOT from
  circuit 11 evaluate in the same einsum;
* the row axis is padded to the widest circuit; pad rows are **inactive
  by construction** — no merged group ever writes them, so they stay
  at their zero initialization and masking is free (the waste is
  surfaced as :attr:`pad_waste_rows`);
* eps batches of different lengths are padded by replicating each
  circuit's last column; pad columns compute harmless duplicate values
  that are sliced away before results are returned.

Gate-level arithmetic is the single-circuit kernel's —
:func:`~repro.reliability.compiled_pass._eval_group` is shared — and
every column's reductions run in the same order at any width of two or
more (a batch runs at least two columns), so per-circuit results equal
solo sweeps bit for bit, ragged or not (pinned by
``tests/test_tensor_pass.py`` and ``tests/test_plain_kernel_digests.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..spec import EpsilonSpec, validate_sweep_specs
from ..probability.error_propagation import transition_lowering
from .compiled_pass import (
    CompiledSinglePass,
    SweepResult,
    _eval_group,
    _fill_eps,
    _OpGroup,
)

#: Widest gate fused across truth classes with a per-gate flip mask —
#: beyond it the mask's ``4**k`` floats per gate outweigh the dispatch
#: saving and wide gates fall back to the shared-mask (truth, arity)
#: merge.
_FUSE_MAX_ARITY = 6


def _as_arity2(group: _OpGroup, zero_row: int) -> _OpGroup:
    """An arity-1 group lowered as 2-input gates whose second fanin reads
    the always-zero state row ``zero_row``.

    The output ignores the pad fanin (truth ``t + t``: vectors ``v`` and
    ``v + 2`` agree), the pad vectors carry zero weight and the pad's
    flip probability is 0.0, so every extra lane only multiplies by 1.0
    or adds 0.0: results are bit-identical to the arity-1 evaluation.
    """
    truth = tuple(group.truth) * 2
    bits, flip_mask, _ = transition_lowering(truth, 2)
    m = len(group.slots)
    w_masked = np.zeros((2, 4, m), dtype=group.w_masked.dtype)
    w_masked[:, :2] = group.w_masked
    return _OpGroup(
        arity=2, slots=group.slots, eps_rows=group.eps_rows,
        fanin_slots=np.concatenate(
            [group.fanin_slots, np.full((m, 1), zero_row, dtype=np.intp)],
            axis=1),
        bits=bits, flip_mask=flip_mask.astype(group.flip_mask.dtype),
        w_masked=w_masked, w_side=group.w_side, truth=truth)


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
        #: Row extent of each circuit's block of the state (widest circuit).
        self.n_rows = max(len(p.node_names) for p in plans)
        #: Pad rows across the whole batch — the cost of rectangularity.
        self.pad_waste_rows = sum(self.n_rows - len(p.node_names)
                                  for p in plans)
        #: The always-zero row every lowered arity-1 gate reads as its
        #: second fanin; the state has one row past the circuit blocks.
        self.zero_row = self.n_circuits * self.n_rows
        #: Row offset of each circuit in the merged (2, gates_total, E)
        #: local-failure matrix.
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
        # gate.  Arity-1 gates join the arity-2 group (see
        # :func:`_as_arity2`), so a level of NOT/BUF and 2-input gates
        # is one group.  Wide gates keep the shared-mask (truth, arity)
        # merge: their per-gate masks would cost ``V**2`` floats each.
        # Iteration is plans-in-order then sorted fuse keys, so the
        # merged schedule is deterministic per batch composition.
        n_levels = max(len(p.levels) for p in plans)
        merged: List[List[_OpGroup]] = []
        for li in range(n_levels):
            classes: Dict[tuple, Dict] = {}
            for ci, plan in enumerate(plans):
                if li >= len(plan.levels):
                    continue
                row0 = ci * self.n_rows
                for group in plan.levels[li]:
                    if group.arity == 1:
                        # Offset below like every fanin: lands on zero_row.
                        group = _as_arity2(group, self.zero_row - row0)
                    fused = group.arity <= _FUSE_MAX_ARITY
                    key = ((0, group.arity) if fused
                           else (1, group.arity, group.truth))
                    entry = classes.get(key)
                    if entry is None:
                        entry = {"template": group, "fused": fused,
                                 "slots": [], "eps_rows": [], "fanins": [],
                                 "masks": [], "w": [], "w_side": []}
                        classes[key] = entry
                    m = len(group.slots)
                    entry["slots"].append(group.slots + row0)
                    entry["eps_rows"].append(
                        group.eps_rows + self.gate_offsets[ci])
                    entry["fanins"].append(group.fanin_slots + row0)
                    if fused:
                        entry["masks"].append(
                            np.repeat(group.flip_mask[None], m, axis=0))
                    entry["w"].append(group.w_masked)
                    entry["w_side"].append(group.w_side)
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
                    w_masked=np.concatenate(entry["w"], axis=2),
                    w_side=np.concatenate(entry["w_side"], axis=1),
                    truth=None if entry["fused"] else template.truth,
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
        # At least two columns, as in the solo kernel: a 1-point batch runs
        # as two identical columns.
        n_eps = max(max(n_points), 2)

        with trace_span("tensor_pass", circuits=self.n_circuits,
                        points=n_eps,
                        pad_waste_rows=self.pad_waste_rows):
            Eps = np.empty((2, self.n_gate_rows, n_eps), dtype=self.dtype)
            for i, plan in enumerate(plans):
                off = self.gate_offsets[i]
                _fill_eps(Eps[:, off:off + len(plan.gate_names)],
                          plan.gate_names, *validated[i])
            P = np.zeros((2, self.zero_row + 1, n_eps), dtype=self.dtype)
            for i, plan in enumerate(plans):
                for slot, ep in plan.input_error_rows:
                    P[0, i * self.n_rows + slot] = ep.p01
                    P[1, i * self.n_rows + slot] = ep.p10
            for level_groups in self.levels:
                for group in level_groups:
                    _eval_group(group, P, Eps)

            results = [
                plan._sweep_result(*validated[i], P[
                    :, i * self.n_rows:i * self.n_rows + len(plan.node_names),
                    :n_points[i]])
                for i, plan in enumerate(plans)]
        if obs_metrics.is_enabled():
            obs_metrics.inc("tensor_pass.sweeps")
            obs_metrics.inc("tensor_pass.circuit_sweeps", self.n_circuits)
            obs_metrics.inc("tensor_pass.points", sum(n_points))
        return results
