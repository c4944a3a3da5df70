"""Multi-circuit tensor kernel: one packed sweep over a batch of plans.

The compiled single-circuit kernel (:class:`~repro.reliability.
compiled_pass.CompiledSinglePass`) already evaluates every eps point of
one circuit in a single level-scheduled array pass.  Production traffic,
though, is many *different* circuits at once — and N back-to-back kernel
invocations serialize on the GIL, repay the per-group dispatch overhead
N times, and run each circuit's (often small) gate batches far below the
vector widths the arrays could sustain.

:class:`TensorBatch` removes the per-circuit axis from the dispatch.  A
plan's state is a block of ``nodes + 1`` rows (its nodes, then the
always-zero row its arity-1 gates read), and the batch packs the blocks
back to back in one stacked ``(2, rows, eps)`` state, with no padding:

* circuits are aligned by topological level **position** — level ``i``
  of the batch runs level ``i`` of every plan that has one (correct
  because circuits are independent: a gate only ever reads state of its
  own circuit's earlier levels);
* at each position, the plans' same-key groups (one per lowered arity,
  or per ``(truth, arity)`` for wide gates — see :func:`~repro.
  reliability.compiled_pass._lower_plain_groups`) are concatenated, each
  plan's row and gate offsets folded into its indices, so a NAND2 from
  circuit 3 and a NOT from circuit 11 evaluate in the same einsum;
* eps batches of different lengths repeat each circuit's last column up
  to the longest; the extra columns are sliced away before results are
  returned.

A solo sweep is a batch of one: :meth:`CompiledSinglePass.run_sweep`
runs its own schedule through the same loop (:func:`~repro.reliability.
compiled_pass._run_packed`), and every column's reductions run in the
same order at any width of two or more, so per-circuit results equal
solo sweeps bit for bit, ragged or not (pinned by
``tests/test_tensor_pass.py`` and ``tests/test_plain_kernel_digests.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..spec import EpsilonSpec, validate_sweep_specs
from .compiled_pass import (
    CompiledSinglePass,
    SweepResult,
    _group_key,
    _OpGroup,
    _run_packed,
)


def _concat_groups(parts: List[tuple]) -> _OpGroup:
    """One group from several plans' same-key ``(group, row offset, gate
    offset)`` parts, the offsets folded into each part's indices."""
    first = parts[0][0]
    groups = [group for group, _, _ in parts]
    return _OpGroup(
        arity=first.arity,
        slots=np.concatenate([g.slots + row0 for g, row0, _ in parts]),
        eps_rows=np.concatenate([g.eps_rows + gate0
                                 for g, _, gate0 in parts]),
        fanin_slots=np.concatenate([g.fanin_slots + row0
                                    for g, row0, _ in parts]),
        bits=first.bits,
        flip_mask=(first.flip_mask if first.truth is not None
                   else np.concatenate([g.flip_mask for g in groups])),
        w_masked=np.concatenate([g.w_masked for g in groups], axis=2),
        w_side=np.concatenate([g.w_side for g in groups], axis=1),
        truth=first.truth,
    )


class TensorBatch:
    """A batch of :class:`CompiledSinglePass` plans merged for one sweep.

    Construct once per batch composition; :meth:`run_sweep` then
    evaluates per-circuit eps batches in a single level-scheduled pass.
    The merge only concatenates the plans' already-lowered arrays (no
    re-lowering, no weight recomputation), so building a ``TensorBatch``
    is cheap relative to even one sweep.

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

    # ------------------------------------------------------------------
    @property
    def n_circuits(self) -> int:
        return len(self.plans)

    def _merge(self) -> None:
        # Iteration is plans in order, then sorted group keys, so the
        # merged schedule is deterministic per batch composition, and a
        # batch of one has its plan's groups.
        positions: List[Dict[tuple, List[tuple]]] = []
        row0 = gate0 = 0
        for plan in self.plans:
            for li, groups in enumerate(plan.levels):
                if li == len(positions):
                    positions.append({})
                for group in groups:
                    positions[li].setdefault(
                        _group_key(group.arity, group.truth), []).append(
                            (group, row0, gate0))
            row0 += plan.state_rows
            gate0 += len(plan.gate_names)
        self.levels: List[List[_OpGroup]] = [
            [_concat_groups(parts[key]) for key in sorted(parts)]
            for parts in positions]
        self.num_groups = sum(len(g) for g in self.levels)
        #: Groups a sequential run would dispatch — the batching win.
        self.unmerged_groups = sum(p.num_groups for p in self.plans)

    # ------------------------------------------------------------------
    def run_sweep(self,
                  eps_specs: Sequence[Sequence[EpsilonSpec]],
                  eps10_specs: Optional[
                      Sequence[Optional[Sequence[EpsilonSpec]]]] = None,
                  ) -> List[SweepResult]:
        """Evaluate one eps batch per circuit in a single merged pass.

        ``eps_specs[i]`` is the sweep batch for ``plans[i]`` (the same
        scalars or per-gate maps :meth:`CompiledSinglePass.run_sweep`
        takes); batches may have different lengths — shorter ones repeat
        their last point up to the longest and the extra columns are
        dropped from the returned results.  ``eps10_specs``, when given,
        is a parallel sequence of optional asymmetric-channel batches.
        Returns one :class:`SweepResult` per plan, in order, identical in
        shape and content to a solo :meth:`CompiledSinglePass.run_sweep`
        call.
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

        validated = [
            validate_sweep_specs(
                plan.circuit, eps_specs[i],
                None if eps10_specs is None else eps10_specs[i])
            for i, plan in enumerate(plans)]
        n_points = [len(specs) for specs, _ in validated]
        with trace_span("tensor_pass", circuits=self.n_circuits,
                        points=max(2, max(n_points))):
            results = _run_packed(plans, self.levels, validated, self.dtype)
        if obs_metrics.is_enabled():
            obs_metrics.inc("tensor_pass.sweeps")
            obs_metrics.inc("tensor_pass.circuit_sweeps", self.n_circuits)
            obs_metrics.inc("tensor_pass.points", sum(n_points))
        return results
