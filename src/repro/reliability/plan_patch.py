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
  against the row numbering, and lays out again only the steps holding
  them: the gate's level, and the expansion waves holding its rows (all
  of a level's waves when one of those rows changes wave).

It declines — and the caller re-lowers — when it cannot prove the
closure unchanged: the node set moved, the plan was fitted to a level
gap, a query needs a row the plan lacks, or a row is read by nothing any
more.  Everything the patch needs beyond the schedule (:class:`PatchIndex`)
is built on a plan's first patch, so a plan never patched pays nothing,
and this module is imported only when a plan is patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, truth_table
from ..probability.weights import WeightData
from .compiled_pass import (
    ROW_ZERO,
    _active_masks,
    _GateBucket,
    _LoweringTemplate,
    _rewrite_columns,
    _RowTable,
    _side_total,
    _side_vectors,
    _split_by,
    _starts,
)


@dataclass
class PatchIndex:
    """What :func:`patch` keeps between the patches of one plan, built on
    its first patch from the plan's own schedule.

    * ``table`` — the plan's row numbering, read only (a patch never
      numbers a row);
    * ``row_a`` … ``row_eb`` — each expansion row's canonical pair,
      ``row_level`` the level of its step and ``row_wave`` the step's
      place among the level's waves (-1 on other rows);
    * ``refs`` — reads of each row by the schedule's terms;
    * ``key_id`` — each gate slot's lowering template key, an index into
      ``keys`` (-1 on other nodes); ``key_ids`` inverts ``keys`` and
      ``templates`` caches the templates per key and side;
    * ``w_flat`` — every gate's weight vector, from ``w_off[slot]``, and
      ``totals`` its side totals at ``2 slot + side``: what the ``w_src``
      and ``d_src`` of a patched step read.
    """

    table: _RowTable
    row_a: np.ndarray
    row_ea: np.ndarray
    row_b: np.ndarray
    row_eb: np.ndarray
    row_level: np.ndarray
    row_wave: np.ndarray
    refs: np.ndarray
    key_id: np.ndarray
    keys: List[tuple]
    key_ids: Dict[tuple, int]
    templates: Dict[tuple, Dict[Optional[int], _LoweringTemplate]]
    arity: np.ndarray
    w_off: np.ndarray
    w_flat: np.ndarray
    totals: np.ndarray


def _row_counts(rows: List[np.ndarray], n_rows: int) -> np.ndarray:
    """How often each of ``n_rows`` coefficient rows occurs in ``rows``."""
    return np.bincount(np.concatenate([np.empty(0, dtype=np.intp)] + rows),
                       minlength=n_rows)


def patch(plan, circuit: Circuit, weights: WeightData,
          changed_gates: Sequence[str], retruthed_gates: Sequence[str]
          ) -> Tuple[Optional[str], int, int]:
    """Patch ``plan`` in place after a type-only edit (see
    :meth:`~repro.reliability.compiled_pass.CompiledCorrelatedPass.
    patch_weights`).  Returns ``(fallback reason or None, members
    rewritten, levels laid out again)``; on a fallback the plan is left
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
    scope = (_whole_plan(plan, idx) if first
             else _changed_scope(plan, idx, key_id, w_flat))
    if scope is None:
        return "missing-row", 0, 0
    gates, rows, wave, gate_levels, full_levels = scope
    # The first patch lays the plan out one level at a time: its peak
    # is then the plan twice over, not that plus a whole compile's
    # lowering arrays.
    slot_levels = plan.structure.slot_levels
    parts = ([(gates[slot_levels[gates] == lv],
               rows[idx.row_level[rows] == lv]) for lv in plan._level_pos]
             if first else [(gates, rows)])
    laid: Dict[int, tuple] = {}
    for part_gates, part_rows in parts:
        if len(part_gates) or len(part_rows):
            part = _relayout(plan, idx, key_id, w_flat, part_gates,
                             part_rows, wave, circuit, weights)
            if part is None:
                return "missing-row", 0, 0
            laid.update(part)
    entries, old, new = _splice(plan, laid, gate_levels, full_levels, wave)
    refs = (idx.refs + _row_counts([st.rows for st in new], plan.n_rows)
            - _row_counts([st.rows for st in old], plan.n_rows))
    if not refs[ROW_ZERO + 1:].all():
        return "unreferenced-row", 0, 0

    # Committed from here on.
    for lv, entry in entries.items():
        plan._schedule[plan._level_pos[lv]] = entry
        if lv in full_levels:
            for w, st in enumerate(entry[3]):
                idx.row_wave[st.targets] = w
    idx.key_id, idx.w_flat, idx.totals, idx.refs = (key_id, w_flat,
                                                    totals, refs)
    plan._patch_index = idx
    members = _rewrite_values(plan, circuit, weights, dirty, gate_levels,
                              set(map(id, new)), w_flat, totals)
    plan._count_schedule()
    plan.circuit = circuit
    plan.weights = weights
    plan.output_prob1 = np.asarray(
        [weights.signal_prob[o] for o in circuit.outputs],
        dtype=np.float64)
    plan.revision += 1
    return None, members, len(entries)


def _whole_plan(plan, idx: PatchIndex) -> tuple:
    """The first patch's scope: every gate and every row, waves from 0
    (see :func:`_changed_scope`)."""
    levels = set(plan._level_pos)
    return (np.flatnonzero(idx.key_id >= 0),
            np.flatnonzero(idx.row_level >= 0),
            np.zeros(plan.n_rows, dtype=np.intp), levels, levels)


def _changed_scope(plan, idx: PatchIndex, key_id: np.ndarray,
                   w_flat: np.ndarray) -> Optional[tuple]:
    """What a patch lays out again: ``(gates, rows, wave, gate levels,
    full levels)``.

    A gate whose template changed takes its level's gates along (their
    plain groups and gate step are laid out again).  Its expansion rows
    take along the waves that hold them while each keeps its wave, or
    else all the waves of its level (a full level).  ``wave`` is each
    row's least wave: its current one, 0 in a full level.  None when a
    query needs a row the plan does not have.
    """
    moved = np.flatnonzero(key_id != idx.key_id)
    moved_rows = np.flatnonzero(np.isin(idx.row_a, moved))
    new_wave = _waves_of(plan, idx, key_id, w_flat, moved_rows)
    if new_wave is None:
        return None
    kept = new_wave == idx.row_wave[moved_rows]
    full_levels = set(idx.row_level[moved_rows[~kept]].tolist())
    in_full = np.isin(idx.row_level, list(full_levels))
    # Rows by (level, wave), as one integer.
    row_step = idx.row_level * plan.n_rows + idx.row_wave
    rows = np.flatnonzero((idx.row_level >= 0) & (
        in_full | np.isin(row_step, row_step[moved_rows[kept]])))
    wave = np.where(in_full, 0, idx.row_wave)
    slot_levels = plan.structure.slot_levels
    gate_levels = set(slot_levels[moved].tolist())
    gates = np.flatnonzero((idx.key_id >= 0)
                           & np.isin(slot_levels, list(gate_levels)))
    return gates, rows, wave, gate_levels, full_levels


def _splice(plan, laid: Dict[int, tuple], gate_levels, full_levels,
            wave: np.ndarray) -> tuple:
    """``(entries, old, new)``: the schedule entries of the levels in
    ``laid`` with its steps put in place — a level's gate part when in
    ``gate_levels``, all of its waves when in ``full_levels``, else the
    waves ``wave`` places them at — and the steps taken out and put in.
    """
    entries, old, new = {}, [], []
    for lv, (new_plain, new_gate, new_waves) in laid.items():
        plain, gate_step, same, waves = plan._schedule[plan._level_pos[lv]]
        if lv in gate_levels:
            old.append(gate_step)
            new.append(new_gate)
            plain, gate_step = new_plain, new_gate
        if lv in full_levels:
            old += waves
            new += new_waves
            waves = new_waves
        elif new_waves:
            waves = list(waves)
            for st in new_waves:
                at = int(wave[st.targets[0]])
                old.append(waves[at])
                new.append(st)
                waves[at] = st
            waves = tuple(waves)
        entries[lv] = (plain, gate_step, same, waves)
    return entries, [st for st in old if st], [st for st in new if st]


def _rewrite_values(plan, circuit: Circuit, weights: WeightData,
                    dirty: np.ndarray, gate_levels, fresh,
                    w_flat: np.ndarray, totals: np.ndarray) -> int:
    """Rewrite in place the values of the ``dirty`` gates' members in the
    steps not laid out again (ids not in ``fresh``) and in the plain
    groups of levels outside ``gate_levels``; returns the members
    rewritten."""
    is_dirty = np.zeros(plan.state_rows, dtype=bool)
    is_dirty[dirty] = True
    # Indexed like ``totals``: by ``2 wire + side``.
    dirty_sides = np.repeat(is_dirty, 2)
    dirty_levels = set(plan.structure.slot_levels[dirty].tolist())
    members = 0
    # A dirty wire's rows sit at its level or above.
    for st in plan._schedule_steps(
            lv for lv in plan._level_pos
            if lv >= min(dirty_levels, default=float("inf"))):
        if id(st) not in fresh and dirty_sides[st.d_src].any():
            st.weights[:, 0] = w_flat.take(st.w_src)
            st.den[...] = np.where(st.mask, totals.take(st.d_src), 1.0)
            members += int(dirty_sides[st.d_src[0]].sum())
    return members + _rewrite_columns(
        chain.from_iterable(plan._schedule[plan._level_pos[lv]][0]
                            for lv in dirty_levels - gate_levels),
        circuit, weights, is_dirty, plan.node_names, np.float64)


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
    targets = [np.empty(0, dtype=np.intp)]
    marginals = [np.empty((2, 0), dtype=np.intp)]
    row_wave = np.full(plan.n_rows, -1, dtype=np.intp)
    for _, _, same, waves in plan._schedule:
        if same is not None:
            table.same_row[same[1]] = same[0]
        for w, st in enumerate(waves):
            targets.append(st.targets)
            marginals.append(st.marginals)
            row_wave[st.targets] = w
    rows = np.concatenate(targets)
    ma, mb = np.concatenate(marginals, axis=1)
    pair = (ma % stride, ma // stride, mb % stride, mb // stride)
    a, ea, b, eb = pair
    keys = ((2 * a + ea) * (2 * n) + 2 * b + eb).astype(np.int64)
    by_key = np.argsort(keys)
    table.keys, table.rows = keys[by_key], rows[by_key]
    levels = plan.structure.slot_levels
    by_row = []
    for col in pair + (np.maximum(levels[a], levels[b]),):
        full = np.full(plan.n_rows, -1, dtype=np.intp)
        full[rows] = col
        by_row.append(full)
    refs = _row_counts([st.rows for st in plan._schedule_steps()],
                       plan.n_rows)
    arity = np.asarray([node.arity if node.gate_type.is_logic else 0
                        for node in nodes], dtype=np.intp)
    sizes = np.where(plan._bucket_of >= 0, 1 << arity, 0)
    return PatchIndex(
        table, *by_row, row_wave, refs, plan._bucket_of.copy(),
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


def _waves_of(plan, idx: PatchIndex, key_id: np.ndarray,
              w_flat: np.ndarray, rows: np.ndarray
              ) -> Optional[np.ndarray]:
    """The wave each of ``rows`` would take under the templates of
    ``key_id``: one past the deepest row of its own level it reads
    (None when a query needs a row the plan does not have)."""
    if not len(rows):
        return rows
    _, resolved = _members(plan, idx, key_id, w_flat,
                           np.empty(0, dtype=np.intp), rows)
    if resolved is None:
        return None
    wave = np.zeros(plan.n_rows, dtype=np.intp)
    for _, (_, _, _, r, res) in resolved:
        same = idx.row_level[res] == idx.row_level[r][:, None]
        wave[r] = np.where(same, idx.row_wave[res] + 1, 0).max(
            axis=1, initial=0)
    return wave[rows]


def _relayout(plan, idx: PatchIndex, key_id: np.ndarray,
              w_flat: np.ndarray, gates: np.ndarray, rows: np.ndarray,
              wave: np.ndarray, circuit: Circuit, weights: WeightData
              ) -> Optional[Dict[int, tuple]]:
    """Lower and lay out again ``gates`` and expansion ``rows`` (see
    :func:`_members`), each row at least at its ``wave``.  Returns the
    :meth:`CompiledCorrelatedPass._lay_out` entries, or None when a
    query needs a row the plan does not have."""
    buckets, resolved = _members(plan, idx, key_id, w_flat, gates, rows)
    if resolved is None:
        return None
    laid = plan._lay_out({key: [member] for key, member in resolved},
                         buckets, circuit, weights, idx.w_off, wave)
    # A step's arrays are slices of arrays shared by every step laid
    # out with it.  A later patch may replace some of those steps and
    # not the others, so each step takes its own copies: what a patch
    # replaces is freed.
    for _, gate_step, waves in laid.values():
        for st in ((gate_step,) if gate_step else ()) + waves:
            for name, value in vars(st).items():
                if isinstance(value, np.ndarray) and value.base is not None:
                    setattr(st, name, value.copy())
    return laid
