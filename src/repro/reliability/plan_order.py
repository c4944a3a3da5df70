"""Sink placement: a correlated plan's members in fewer, fatter steps.

:class:`~repro.reliability.compiled_pass.CompiledCorrelatedPass` runs
four kinds of *member*: plain gates (in plain groups, one kind per group
key), corrected gates, same-wire rows and expansion rows.  Its *base
order* is level-major: per circuit level, the plain groups, the
corrected-gate step, the same-wire batch, then one step per expansion
wave (a row's wave is one past the deepest row of its own level it
reads).  Every member of that order runs after everything it reads, but
at the widths serve traffic uses a sweep costs what its dispatches cost,
and the base order dispatches about three steps per level.

:func:`place` keeps the base order's steps and puts every member in the
latest step of its own kind that still runs before the first step
reading its output — it *sinks* — under one condition: the step's own
base members already use every perturbation form the member uses, so no
step gains a form block.  A step judged by its base forms gives a
placement that does not depend on the order members are visited in.
Steps that lose all their members vanish.  Grouping cannot move a
float: a step evaluates every member with the member's own operands and
reduces each member's terms in rank-ordered rounds that keep its own
addition order.

Members share one id space: gate slot ``s`` is member ``s`` and
coefficient row ``r`` is member ``n_slots + r``.  A step is named by one
integer, ``base code * KINDS + kind``, and steps run in ascending name
order.  Only the correlated plan and its patch import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..circuit import Circuit
from .compiled_pass import (
    ROW_ZERO,
    _group_key,
    _lowered_truth,
    _stable_order,
)

#: Member kinds; a plain gate's kind is ``PLAIN +`` its group key's id.
GATE, SAME, EXPAND, PLAIN = 0, 1, 2, 3
#: Bound on kinds, the factor between a step's base code and its kind.
KINDS = 1 << 20
#: Base phase of an expansion row in wave 0 (plain 0, gate 1, same 2).
_WAVE_PHASE = 3
#: Soft cap on the (classes, steps, words) form-cover test's elements.
_COVER_ELEMENTS = 1 << 22


@dataclass
class Placement:
    """Everything :func:`place` reads, indexed by member id.

    * ``kind`` and ``level`` of each member (-1 where there is none), and
      ``forms``, its perturbation forms as bits (``form_ids``) in
      uint64 words;
    * ``wires`` — per coefficient row, the two wires whose state its
      tail reads: an expansion row's ``a`` and ``b``, a same-wire row's
      wire twice (-1 on other rows);
    * ``child`` / ``reader`` — every nonconstant row read, and the
      member reading it; ``fan`` — ``(fanin, gate)`` slot pairs of the
      gates, the state reads of both gate kinds;
    * ``plain_ids`` — the id of each plain group key;
    * ``wave`` — each row's base wave, and ``step`` — each member's
      step, once placed.
    """

    n_slots: int
    kind: np.ndarray
    level: np.ndarray
    forms: np.ndarray
    wires: np.ndarray
    child: np.ndarray
    reader: np.ndarray
    fan: np.ndarray
    form_ids: Dict[object, int]
    plain_ids: Dict[tuple, int]
    wave: Optional[np.ndarray] = None
    step: Optional[np.ndarray] = None

    def copy(self) -> "Placement":
        """A copy whose arrays and maps can be rewritten."""
        return Placement(self.n_slots, self.kind.copy(), self.level.copy(),
                         self.forms.copy(), self.wires.copy(), self.child,
                         self.reader, self.fan, dict(self.form_ids),
                         dict(self.plain_ids), self.wave, self.step)


def empty(plan, circuit: Circuit) -> Placement:
    """A placement of no member over ``plan``'s slots and rows."""
    n = plan.state_rows + plan.n_rows
    gates = np.asarray([plan.index[g] for g in plan.gate_names],
                       dtype=np.intp)
    arity = np.asarray([circuit.node(g).arity for g in plan.gate_names],
                       dtype=np.intp)
    fanin = plan._fanin[gates]
    wired = np.arange(fanin.shape[1]) < arity[:, None]
    fan = np.stack([fanin[wired], np.repeat(gates, arity)])
    fan = fan[:, plan._eps_row[fan[0]] >= 0]
    none = np.empty(0, dtype=np.intp)
    return Placement(plan.state_rows, np.full(n, -1, dtype=np.intp),
                     np.full(n, -1, dtype=np.intp),
                     np.zeros((n, 1), dtype=np.uint64),
                     np.full((plan.n_rows, 2), -1, dtype=np.intp),
                     none, none, fan, {}, {})


def add(p: Placement, plan, circuit: Circuit, lowered, same) -> None:
    """Enter ``lowered`` (a :meth:`~repro.reliability.compiled_pass.
    CompiledCorrelatedPass._lower` result) and the same-wire ``(rows,
    flat state reads)`` into ``p``, replacing what ``p`` held for those
    members: their kind, level, forms, wires and row reads."""
    members, programs, terms, forms, reads, plain = lowered
    stride = p.n_slots
    levels = plan.structure.slot_levels
    rows, flat = same
    ids = [plain, stride + rows]
    if members is not None:
        target, _, level, ea, _, marginals = members
        expand = ea >= 0
        member_ids = np.where(expand, stride + target, target)
        ids.append(member_ids)
    ids = np.concatenate(ids)
    # Clear, then enter: a member may change kind or lose forms.
    p.forms[ids] = 0
    keep = ~_marked(len(p.kind), ids)[p.reader]
    child, reader = [p.child[keep]], [p.reader[keep]]

    if len(plain):
        kinds = []
        for slot in plain.tolist():
            truth, k = _lowered_truth(circuit.node(plan.node_names[slot]))
            key = _group_key(k, truth)
            kinds.append(PLAIN + p.plain_ids.setdefault(
                key, len(p.plain_ids)))
        p.kind[plain] = kinds
        p.level[plain] = levels[plain]
    p.kind[stride + rows] = SAME
    p.level[stride + rows] = levels[flat % stride]
    p.wires[rows] = (flat % stride)[:, None]
    if members is not None:
        p.kind[member_ids] = np.where(expand, EXPAND, GATE)
        p.level[member_ids] = level
        p.wires[target[expand]] = marginals[expand] % stride
        bits = [p.form_ids.setdefault(form, len(p.form_ids))
                for form in forms]
        words = -(-len(p.form_ids) // 64)
        if words > p.forms.shape[1]:
            p.forms = np.pad(p.forms,
                             ((0, 0), (0, words - p.forms.shape[1])))
        # Duplicate indices all write the same word: ``|=`` is safe.
        for bit, (prog, *_) in zip(bits, terms):
            p.forms[member_ids[programs[0][prog]], bit >> 6] |= np.uint64(
                1 << (bit & 63))
        member, row = reads
        child.append(row)
        reader.append(member_ids[member])
    # (A compile keeps nothing: its new reads are used as they are.)
    p.child, p.reader = (np.concatenate(x) if len(x[0]) else x[-1]
                         for x in (child, reader))


def waves(p: Placement) -> np.ndarray:
    """Each row's base wave: the longest chain of expansion rows of its
    own level that it reads, relaxed until nothing deepens."""
    S = p.n_slots
    expand = p.kind[S:] == EXPAND
    # Equal only where both rows are expansion rows of one level.
    parent_level = np.where(expand, p.level[S:], -1)
    child_level = np.where(expand, p.level[S:], -2)
    parent = p.reader - S
    rows = parent >= 0
    parent, child = parent[rows], p.child[rows]
    link = parent_level[parent] == child_level[child]
    parent, child = parent[link], child[link]
    wave = np.zeros(len(p.wires), dtype=np.intp)
    while len(parent):
        deeper = wave[child] + 1 > wave[parent]
        if not deeper.any():
            break
        np.maximum.at(wave, parent[deeper], wave[child[deeper]] + 1)
    return wave


def place(p: Placement, wave: Optional[np.ndarray] = None) -> np.ndarray:
    """Sink every member of ``p`` (see the module docstring); records and
    returns ``p.step``, each member's step name (-1: no member).
    ``wave`` gives the rows' base waves when they are known."""
    p.wave = waves(p) if wave is None else wave
    S = p.n_slots
    ids = np.flatnonzero(p.kind >= 0)
    n = len(ids)
    kind = p.kind[ids]
    phase = np.where(kind >= PLAIN, 0, kind + 1)
    expand = kind == EXPAND
    phase[expand] = _WAVE_PHASE + p.wave[ids[expand] - S]
    n_phases = int(phase.max()) + 1
    codes, base = _dense(p.level[ids] * n_phases + phase)
    n_codes = len(codes)
    eligible, cls = _eligible(kind, p.forms[ids], base, n_codes)
    # Members sorted by base code, so one code's members are a slice.
    by_code = _stable_order(base, n_codes)
    ids, kind, base, cls = (ids[by_code], kind[by_code], base[by_code],
                            cls[by_code])
    m_start = _bounds(base, n_codes)
    # Reads as (writer, reader) positions in that order, sorted by the
    # reader's code: gate fanins, row reads, and the wires each row's
    # tail reads (-1: a primary input).
    at = np.full(len(p.kind) + 1, -1, dtype=np.int32)
    at[ids] = np.arange(n, dtype=np.int32)
    rows = np.flatnonzero(ids >= S)
    wires = at[p.wires[ids[rows] - S]]
    wired = wires >= 0
    tails = np.broadcast_to(rows[:, None], wires.shape)
    writer = np.concatenate([at[p.fan[0]], at[S:][p.child], wires[wired]])
    reader = np.concatenate([at[p.fan[1]], at[p.reader], tails[wired]])
    reader_code = base[reader]
    by_reader = _stable_order(reader_code, n_codes)
    e_start = _bounds(reader_code, n_codes)
    del reader_code
    writer, reader = writer[by_reader], reader[by_reader]

    # Base codes in reverse: a member's step is the latest eligible code
    # of its class before its first reader's; then it pushes its step to
    # what it reads.  In the sorted ``class * n_codes + code`` keys, the
    # key before ``offset + limit`` is that code: the member's own base
    # code is eligible and below the limit, so it stays in the class.
    offset = cls * n_codes
    before = np.empty(len(eligible) + 1, dtype=np.intp)
    before[1:] = eligible % n_codes
    limit = np.full(n, n_codes, dtype=np.intp)
    pos = np.empty(n, dtype=np.intp)
    for c in range(n_codes - 1, -1, -1):
        m = slice(m_start[c], m_start[c + 1])
        pos[m] = before[eligible.searchsorted(offset[m] + limit[m])]
        e = slice(e_start[c], e_start[c + 1])
        np.minimum.at(limit, writer[e], pos[reader[e]])
    level, phase = np.divmod(codes[pos], n_phases)
    p.step = np.full(len(p.kind), -1, dtype=np.int64)
    p.step[ids] = ((level * (len(p.wires) + _WAVE_PHASE + 1) + phase)
                   * KINDS + kind)
    return p.step


def _dense(key: np.ndarray):
    """``(values, index)``: the distinct values of the nonnegative
    ``key``, ascending, and each key's index among them (by counting, so
    ``key``'s range must be small)."""
    present = np.bincount(key) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[key]


def _bounds(key: np.ndarray, n: int) -> List[int]:
    """Where each value ``0 .. n-1`` of ``key`` starts once sorted, and
    ``len(key)``."""
    return [0] + np.cumsum(np.bincount(key, minlength=n)).tolist()


def _eligible(kind: np.ndarray, forms: np.ndarray, base: np.ndarray,
              n_codes: int):
    """``(keys, cls)``: each member's class (kind and forms), and the
    sorted ``class * n_codes + code`` of every base step a class may
    enter — one of its kind, at or after its earliest member's, whose
    base members' forms cover the class's forms."""
    if forms.shape[1] == 1 and forms.max(initial=0) < len(forms):
        f_rows, f_key = _dense(forms[:, 0].astype(np.intp))
        f_rows = f_rows.astype(np.uint64)[:, None]
    else:
        f_rows, f_key = np.unique(forms, axis=0, return_inverse=True)
    n_kinds = int(kind.max()) + 1
    classes, cls = _dense(f_key.ravel() * n_kinds + kind)
    c_kind = classes % n_kinds
    c_forms = f_rows[classes // n_kinds]
    c_first = np.full(len(classes), n_codes, dtype=np.intp)
    np.minimum.at(c_first, cls, base)
    steps, m_step = _dense(base * n_kinds + kind)
    s_code, s_kind = np.divmod(steps, n_kinds)
    # A step's forms: the union of its members' classes' forms.
    pairs, _ = _dense(m_step * len(classes) + cls)
    s_forms = np.zeros((len(steps), forms.shape[1]), dtype=np.uint64)
    np.bitwise_or.at(s_forms, pairs // len(classes),
                     c_forms[pairs % len(classes)])
    keys = []
    for k in np.unique(c_kind).tolist():
        cs, ss = np.flatnonzero(c_kind == k), np.flatnonzero(s_kind == k)
        sf, sc = s_forms[ss][None], s_code[ss][None]
        chunk = max(1, _COVER_ELEMENTS // max(1, sf.size))
        for at in range(0, len(cs), chunk):
            c = cs[at:at + chunk]
            cf = c_forms[c][:, None]
            ci, si = np.nonzero(((sf & cf) == cf).all(axis=2)
                                & (sc >= c_first[c][:, None]))
            keys.append(c[ci] * n_codes + sc[0, si])
    return np.sort(np.concatenate(keys)), cls


def same_inputs(old: Placement, new: Placement, ids: np.ndarray) -> bool:
    """True when members ``ids`` have the same kind, forms and row reads
    in ``new`` as in ``old`` (where nothing else differs): then every
    member keeps its step."""
    words = min(old.forms.shape[1], new.forms.shape[1])
    if ((old.kind[ids] != new.kind[ids]).any()
            or (old.forms[ids, :words] != new.forms[ids, :words]).any()
            or new.forms[ids, words:].any()):
        return False
    reads = []
    marked = _marked(len(new.kind), ids)
    for p in (old, new):
        sel = marked[p.reader]
        reads.append(np.sort(p.reader[sel] * (len(p.wires) + 1)
                             + p.child[sel]))
    return np.array_equal(*reads)


def _marked(n: int, ids: np.ndarray) -> np.ndarray:
    """A boolean array of length ``n``, True at ``ids``."""
    marked = np.zeros(n, dtype=bool)
    marked[ids] = True
    return marked


def unread_rows(p: Placement, n_rows: int) -> bool:
    """True when a nonconstant row is read by no member."""
    return not np.bincount(p.child, minlength=n_rows)[ROW_ZERO + 1:].all()
