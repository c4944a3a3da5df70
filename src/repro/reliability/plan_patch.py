"""In-place patching of a compiled correlated plan after a type-only edit.

:meth:`~repro.reliability.compiled_pass.CompiledCorrelatedPass.
patch_weights` calls :func:`patch`.  A gate swap that keeps every fanin
keeps the plan's pair closure in the common case, and then a re-lower
would rebuild the same row numbering and nearly the same steps.  The
patch instead keeps the row numbering and:

* rewrites in place the values of members whose lowering template
  (truth table, arity, nonzero-weight vectors, error-free fanins) is
  unchanged — program weights and side totals gathered again through
  each step's ``w_src`` / ``d_src``, and plain-group columns;
* resolves the queries of members whose template changed, read only,
  against the row numbering, and enters their kinds, forms and row
  reads into the plan's :class:`~repro.reliability.plan_order.
  Placement`.  A changed member can move, and so can every member whose
  first reader or whose steps' forms moved with it, so every member is
  placed again by the compile's own rule (:func:`~repro.reliability.
  plan_order.place`), and only the steps whose membership changed or
  that hold a changed member are laid out again.

It declines — and the caller re-lowers — when it cannot prove the
closure unchanged: the node set moved, the plan was fitted to a level
gap, a query needs a row the plan lacks, or a row is read by nothing any
more.  Everything the patch needs beyond the schedule (:class:`PatchIndex`)
is built on a plan's first patch, which lays the whole plan out once, so
a plan never patched pays nothing, and this module is imported only when
a plan is patched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, truth_table
from ..probability.weights import WeightData
from . import plan_order
from .compiled_pass import (
    ROW_ZERO,
    _active_masks,
    _GateBucket,
    _LoweringTemplate,
    _OpGroup,
    _rewrite_columns,
    _RowTable,
    _side_total,
    _side_vectors,
    _split_by,
    _starts,
    _Step,
)


@dataclass
class PatchIndex:
    """What :func:`patch` keeps between the patches of one plan, built on
    its first patch from the plan's own schedule.

    * ``table`` — the plan's row numbering, read only (a patch never
      numbers a row);
    * ``row_a`` … ``row_eb`` — each expansion row's canonical pair (-1 on
      other rows), ``same_flat`` each same-wire row's flat state read
      (-1 on other rows);
    * ``key_id`` — each gate slot's lowering template key, an index into
      ``keys`` (-1 on other nodes); ``key_ids`` inverts ``keys`` and
      ``templates`` caches the templates per key and side;
    * ``w_flat`` — every gate's weight vector, from ``w_off[slot]``, and
      ``totals`` its side totals at ``2 slot + side``: what the ``w_src``
      and ``d_src`` of a patched step read;
    * ``placement`` — the plan's placed :class:`~repro.reliability.
      plan_order.Placement`, and ``row_wave`` its rows' base waves.
    """

    table: _RowTable
    row_a: np.ndarray
    row_ea: np.ndarray
    row_b: np.ndarray
    row_eb: np.ndarray
    same_flat: np.ndarray
    key_id: np.ndarray
    keys: List[tuple]
    key_ids: Dict[tuple, int]
    templates: Dict[tuple, Dict[Optional[int], _LoweringTemplate]]
    arity: np.ndarray
    w_off: np.ndarray
    w_flat: np.ndarray
    totals: np.ndarray
    placement: Optional[plan_order.Placement] = None
    row_wave: Optional[np.ndarray] = None


def patch(plan, circuit: Circuit, weights: WeightData,
          changed_gates: Sequence[str], retruthed_gates: Sequence[str]
          ) -> Tuple[Optional[str], int, int]:
    """Patch ``plan`` in place after a type-only edit (see
    :meth:`~repro.reliability.compiled_pass.CompiledCorrelatedPass.
    patch_weights`).  Returns ``(fallback reason or None, members
    rewritten, steps laid out again)``; on a fallback the plan is left
    as it was."""
    if (circuit.topological_order() != plan.node_names
            or circuit.topological_gates() != plan.gate_names):
        return "node-set", 0, 0
    if plan.level_gap != plan.max_level_gap:
        return "fitted", 0, 0
    idx = plan._patch_index
    first = idx is None
    if first:
        idx = _build_index(plan)
    dirty = np.unique(np.asarray(
        [plan.index[g] for g in chain(changed_gates, retruthed_gates)],
        dtype=np.intp))
    key_id, w_flat, totals = _sources(
        plan, idx, circuit, weights,
        np.flatnonzero(idx.key_id >= 0) if first else dirty,
        None if first else np.asarray(
            [plan.index[g] for g in retruthed_gates], dtype=np.intp))
    S = plan.state_rows
    placement, layout, gone = idx.placement, {}, []
    if first:
        # The first patch lays the whole plan out and places it.
        rows = np.flatnonzero((idx.row_a >= 0) | (idx.same_flat >= 0))
        moved = np.concatenate([np.flatnonzero(key_id >= 0), S + rows])
        relay, gone = moved, list(plan._layout)
        placement = plan_order.empty(plan, circuit)
    else:
        # Gates whose template changed, and their expansion rows; unless
        # a member moves, the steps to lay out again are theirs.
        gates = np.flatnonzero(key_id != idx.key_id)
        moved = np.concatenate([gates, S + _rows_of(idx, gates)])
        old = placement.step
        relay = np.flatnonzero(np.isin(old, old[moved]))
        if len(relay):
            placement = placement.copy()
    if len(relay):
        lowered, same = _lower_ids(plan, idx, key_id, w_flat, relay)
        if lowered is None:
            return "missing-row", 0, 0
        plan_order.add(placement, plan, circuit, lowered, same)
        if plan_order.unread_rows(placement, plan.n_rows):
            return "unreferenced-row", 0, 0
        if first:
            plan_order.place(placement)
        elif plan_order.same_inputs(idx.placement, placement, relay):
            # Nothing :func:`plan_order.place` reads has changed.
            placement.step, placement.wave = old, idx.row_wave
            gone = np.unique(old[moved]).tolist()
        else:
            expansion = np.flatnonzero(idx.row_a >= 0)
            wave = np.zeros(plan.n_rows, dtype=np.intp)
            wave[expansion] = _waves_of(plan, idx, key_id, w_flat, expansion)
            plan_order.place(placement, wave)
            changed = np.union1d(moved, np.flatnonzero(placement.step != old))
            gone = np.union1d(old[changed], placement.step[changed])
            # Every member of ``relay`` is in one of these steps.
            wider = np.flatnonzero(np.isin(placement.step, gone))
            if len(wider) > len(relay):
                lowered, same = _lower_ids(plan, idx, key_id, w_flat, wider)
            gone = gone.tolist()
        layout = _own_arrays(plan._lay_out(
            lowered[:4] + lowered[5:], same, placement.step, circuit,
            weights, idx.w_off))

    # Committed from here on.
    for name in gone:
        plan._layout.pop(name, None)
    plan._layout.update(layout)
    plan._count_schedule()
    idx.key_id, idx.w_flat, idx.totals = key_id, w_flat, totals
    idx.placement, idx.row_wave = placement, placement.wave
    plan._patch_index = idx
    members = _rewrite_values(plan, circuit, weights, dirty,
                              set(map(id, layout.values())), w_flat, totals)
    plan.circuit = circuit
    plan.weights = weights
    plan.output_prob1 = np.asarray(
        [weights.signal_prob[o] for o in circuit.outputs],
        dtype=np.float64)
    plan.revision += 1
    return None, members, len(layout)


def _rows_of(idx: PatchIndex, gates: np.ndarray) -> np.ndarray:
    """The expansion rows of ``gates`` (rows whose ``a`` is one)."""
    marked = plan_order._marked(len(idx.arity), gates)
    return np.flatnonzero((idx.row_a >= 0) & marked[idx.row_a])


def _same(idx: PatchIndex, rows: np.ndarray) -> tuple:
    """``(rows, flat state reads)`` of same-wire ``rows``."""
    return rows, idx.same_flat[rows]


def _rewrite_values(plan, circuit: Circuit, weights: WeightData,
                    dirty: np.ndarray, fresh, w_flat: np.ndarray,
                    totals: np.ndarray) -> int:
    """Rewrite in place the values of the ``dirty`` gates' members in the
    steps and plain groups not laid out again (ids not in ``fresh``);
    returns the members rewritten."""
    is_dirty = np.zeros(plan.state_rows, dtype=bool)
    is_dirty[dirty] = True
    # Indexed like ``totals``: by ``2 wire + side``.
    dirty_sides = np.repeat(is_dirty, 2)
    members = 0
    groups = []
    for item in plan._schedule:
        if id(item) in fresh:
            continue
        if type(item) is _Step and dirty_sides[item.d_src].any():
            item.weights[:, 0] = w_flat.take(item.w_src)
            item.den[...] = np.where(item.mask, totals.take(item.d_src), 1.0)
            members += int(dirty_sides[item.d_src[0]].sum())
        elif type(item) is _OpGroup:
            groups.append(item)
    return members + _rewrite_columns(groups, circuit, weights, is_dirty,
                                      plan.node_names, np.float64)


def _build_index(plan) -> PatchIndex:
    """The :class:`PatchIndex` of the compiled schedule: the row
    numbering is read back from the same-wire batches and the
    expansion steps' marginal reads, which name each row's pair."""
    stride, n = plan.state_rows, len(plan.node_names)
    nodes = [plan.circuit.node(name) for name in plan.node_names]
    table = _RowTable(plan.structure, np.asarray(
        [node.gate_type.is_logic for node in nodes], dtype=bool),
        plan.level_gap)
    table.n_rows = plan.n_rows
    same_flat = np.full(plan.n_rows, -1, dtype=np.intp)
    targets = [np.empty(0, dtype=np.intp)]
    marginals = [np.empty((2, 0), dtype=np.intp)]
    for item in plan._schedule:
        if type(item) is tuple:
            rows, flat = item
            table.same_row[flat] = rows
            same_flat[rows] = flat
        elif type(item) is _Step and item.kind == "expand":
            targets.append(item.targets)
            marginals.append(item.marginals)
    rows = np.concatenate(targets)
    ma, mb = np.concatenate(marginals, axis=1)
    pair = (ma % stride, ma // stride, mb % stride, mb // stride)
    a, ea, b, eb = pair
    keys = ((2 * a + ea) * (2 * n) + 2 * b + eb).astype(np.int64)
    by_key = np.argsort(keys)
    table.keys, table.rows = keys[by_key], rows[by_key]
    by_row = []
    for col in pair:
        full = np.full(plan.n_rows, -1, dtype=np.intp)
        full[rows] = col
        by_row.append(full)
    arity = np.asarray([node.arity if node.gate_type.is_logic else 0
                        for node in nodes], dtype=np.intp)
    sizes = np.where(plan._bucket_of >= 0, 1 << arity, 0)
    return PatchIndex(
        table, *by_row, same_flat, plan._bucket_of.copy(),
        list(plan._bucket_keys),
        {key: i for i, key in enumerate(plan._bucket_keys)}, {},
        arity, _starts(sizes), np.zeros(int(sizes.sum())),
        np.zeros(2 * n))


def _sources(plan, idx: PatchIndex, circuit: Circuit,
             weights: WeightData, slots: np.ndarray,
             retruthed: Optional[np.ndarray]) -> tuple:
    """``(key_id, w_flat, totals)``: copies of the index's arrays with
    ``slots``' weight vectors, template keys and side totals taken
    from ``circuit`` and ``weights``.  A key is recomputed for the
    ``retruthed`` slots and those whose zero weights moved (for every
    slot when ``retruthed`` is None); the others keep theirs."""
    key_id, w_flat, totals = (idx.key_id.copy(), idx.w_flat.copy(),
                              idx.totals.copy())
    arity = idx.arity[slots]
    for sel in _split_by(arity):
        group, k = slots[sel], int(arity[sel[0]])
        w = np.stack([weights.weights[plan.node_names[s]]
                      for s in group.tolist()]).astype(np.float64,
                                                       copy=False)
        at = idx.w_off[group][:, None] + np.arange(1 << k)
        rekey = (np.ones(len(group), dtype=bool) if retruthed is None
                 else (((w_flat[at] != 0.0) != (w != 0.0)).any(axis=1)
                       | np.isin(group, retruthed)))
        w_flat[at] = w
        for i, active in zip(np.flatnonzero(rekey).tolist(),
                             _active_masks(w[rekey])):
            s = int(group[i])
            key = (truth_table(circuit.node(plan.node_names[s])
                               .gate_type, k),
                   k, active, idx.keys[idx.key_id[s]][3])
            if key not in idx.key_ids:
                idx.key_ids[key] = len(idx.keys)
                idx.keys.append(key)
            key_id[s] = idx.key_ids[key]
        kid = key_id[group]
        for part in _split_by(kid):
            truth, _, active, _ = idx.keys[kid[part[0]]]
            for side, vectors in enumerate(
                    _side_vectors(truth, k, active)):
                totals[2 * group[part] + side] = _side_total(
                    w[part], vectors)
    return key_id, w_flat, totals


def _members(plan, idx: PatchIndex, key_id: np.ndarray,
             w_flat: np.ndarray, gates: np.ndarray, rows: np.ndarray):
    """``(buckets, resolved)`` of ``gates`` and expansion ``rows``
    under the templates of ``key_id`` and the weights of ``w_flat``,
    resolved read only against the plan's row numbering (see
    :meth:`CompiledCorrelatedPass._resolve`; ``resolved`` is None when a
    query needs a row the plan does not have)."""
    wires = np.union1d(gates, idx.row_a[rows])
    kid = key_id[wires]
    bucket_of = np.full(len(idx.keys), -1, dtype=np.intp)
    buckets: List[_GateBucket] = []
    for sel in _split_by(kid):
        key = idx.keys[kid[sel[0]]]
        slots = wires[sel]
        bucket_of[kid[sel[0]]] = len(buckets)
        buckets.append(_GateBucket(
            *key, slots,
            w_flat[idx.w_off[slots][:, None] + np.arange(1 << key[1])],
            idx.templates.setdefault(key, {})))
    gate_bucket = bucket_of[key_id[gates]]
    batches = [(int(gate_bucket[sel[0]]), None, gates[sel], None, None,
                None) for sel in _split_by(gate_bucket)]
    a = idx.row_a[rows]
    side_key = bucket_of[key_id[a]] * 2 + idx.row_ea[rows]
    for sel in _split_by(side_key):
        r = rows[sel]
        batches.append((int(side_key[sel[0]]) // 2,
                        int(side_key[sel[0]]) % 2, a[sel],
                        idx.row_b[r], idx.row_eb[r], r))
    return buckets, plan._resolve(idx.table, buckets, batches,
                                  create=False)


def _lower(plan, idx: PatchIndex, key_id: np.ndarray, w_flat: np.ndarray,
           gates: np.ndarray, rows: np.ndarray, sources: bool):
    """:meth:`CompiledCorrelatedPass._lower` of ``gates`` and expansion
    ``rows`` (see :func:`_members`), or None when a query needs a row
    the plan does not have."""
    buckets, resolved = _members(plan, idx, key_id, w_flat, gates, rows)
    if resolved is None:
        return None
    return plan._lower({key: [member] for key, member in resolved},
                       buckets, sources=sources)


def _waves_of(plan, idx: PatchIndex, key_id: np.ndarray,
              w_flat: np.ndarray, rows: np.ndarray
              ) -> Optional[np.ndarray]:
    """The base wave each of ``rows`` takes once the expansion rows of
    the gates whose template changed under ``key_id`` read their new
    rows (None when a query needs a row the plan does not have)."""
    moved = _rows_of(idx, np.flatnonzero(key_id != idx.key_id))
    _, resolved = _members(plan, idx, key_id, w_flat,
                           np.empty(0, dtype=np.intp), moved)
    if resolved is None:
        return None
    p = idx.placement
    child, reader = [], []
    for _, (_, _, _, r, res) in resolved:
        read = res > ROW_ZERO
        child.append(res[read])
        reader.append(np.repeat(p.n_slots + r, read.sum(axis=1)))
    keep = ~plan_order._marked(len(p.kind), p.n_slots + moved)[p.reader]
    return plan_order.waves(replace(
        p, child=np.concatenate([p.child[keep]] + child),
        reader=np.concatenate([p.reader[keep]] + reader)))[rows]


def _lower_ids(plan, idx: PatchIndex, key_id: np.ndarray,
               w_flat: np.ndarray, ids: np.ndarray) -> tuple:
    """``(lowered, same)``: :func:`_lower` of the gates and expansion rows
    among member ids ``ids``, with step sources, and the same-wire
    ``(rows, flat state reads)`` among them."""
    S = plan.state_rows
    rows = ids[ids >= S] - S
    expansion = idx.row_a[rows] >= 0
    return (_lower(plan, idx, key_id, w_flat, ids[ids < S], rows[expansion],
                   True),
            _same(idx, rows[~expansion]))


def _own_arrays(layout: Dict[int, object]) -> Dict[int, object]:
    """``layout`` with every step holding its own arrays.  A step's
    arrays are slices of arrays shared by every step laid out with it; a
    later patch may replace some of those steps and not the others, so
    each step takes its own copies: what a patch replaces is freed."""
    for item in layout.values():
        if type(item) is _Step:
            for name, value in vars(item).items():
                if isinstance(value, np.ndarray) and value.base is not None:
                    setattr(item, name, value.copy())
    return layout
