"""Gate primitives: types, arity rules, and Boolean evaluation.

Every combinational node in a :class:`~repro.circuit.circuit.Circuit` has a
:class:`GateType`.  The reliability algorithms in this package only ever need
two things from a gate: its truth table (for weight-vector and error
propagation math) and fast scalar/word evaluation (for simulation).  Both are
provided here so the rest of the code base never special-cases gate kinds.
"""

from __future__ import annotations

import enum
import sys
from functools import lru_cache, reduce
from typing import Sequence, Tuple


class GateType(enum.Enum):
    """The kinds of nodes supported in a circuit netlist.

    ``INPUT`` marks a primary input (no fanins).  ``CONST0``/``CONST1`` are
    constant drivers (no fanins).  ``DFF``/``LATCH`` are sequential state
    elements (one data fanin); they never appear inside a combinational
    :class:`~repro.circuit.circuit.Circuit` — the
    :class:`~repro.circuit.sequential.SequentialCircuit` wrapper holds them
    as :class:`~repro.circuit.sequential.FlipFlop` records.  All remaining
    types are logic gates whose output is a Boolean function of their
    fanins.
    """

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    DFF = "dff"
    LATCH = "latch"

    # Plain member attributes, set below: netlist construction reads them
    # per node, where a set lookup would cost a Python-level
    # ``Enum.__hash__`` call each time.
    is_input: bool
    is_constant: bool
    #: True for sequential state elements (flip-flops and latches).
    is_state: bool
    #: True for nodes computing a function of one or more fanins.
    is_logic: bool
    #: ``(min, max)`` fanin count the type accepts (see :func:`check_arity`).
    fanin_bounds: Tuple[int, int]


_INPUT_TYPES = frozenset({GateType.INPUT})
_CONSTANT_TYPES = frozenset({GateType.CONST0, GateType.CONST1})

#: Sequential state-element types (one data fanin, no truth table).
STATE_TYPES = frozenset({GateType.DFF, GateType.LATCH})

_LOGIC_TYPES = (frozenset(GateType) - _INPUT_TYPES - _CONSTANT_TYPES
                - STATE_TYPES)

#: Gate types that accept exactly one fanin.
UNARY_TYPES = frozenset({GateType.BUF, GateType.NOT})

#: Gate types that accept two or more fanins.
MULTI_INPUT_TYPES = frozenset(
    {GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
     GateType.XOR, GateType.XNOR}
)

for _t in GateType:
    _t.is_input = _t in _INPUT_TYPES
    _t.is_constant = _t in _CONSTANT_TYPES
    _t.is_state = _t in STATE_TYPES
    _t.is_logic = _t in _LOGIC_TYPES
    if _t in MULTI_INPUT_TYPES:
        _t.fanin_bounds = (2, sys.maxsize)
    elif _t in UNARY_TYPES or _t.is_state:
        _t.fanin_bounds = (1, 1)
    else:
        _t.fanin_bounds = (0, 0)
del _t

#: Gate types whose output is the complement of a simpler base function.
INVERTING_TYPES = frozenset(
    {GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR}
)

_BASE_OF_INVERTING = {
    GateType.NOT: GateType.BUF,
    GateType.NAND: GateType.AND,
    GateType.NOR: GateType.OR,
    GateType.XNOR: GateType.XOR,
}


class GateArityError(ValueError):
    """Raised when a gate is constructed with an unsupported fanin count."""


def check_arity(gate_type: GateType, arity: int) -> None:
    """Validate that ``gate_type`` accepts ``arity`` fanins.

    Raises :class:`GateArityError` on violation.  XOR/XNOR with more than two
    fanins use parity semantics (odd number of 1s), matching common netlist
    formats.
    """
    if gate_type.is_input or gate_type.is_constant:
        if arity != 0:
            raise GateArityError(
                f"{gate_type.value} node must have no fanins, got {arity}")
    elif gate_type in STATE_TYPES:
        if arity != 1:
            raise GateArityError(
                f"{gate_type.value} element must have exactly 1 data fanin, "
                f"got {arity}")
    elif gate_type in UNARY_TYPES:
        if arity != 1:
            raise GateArityError(
                f"{gate_type.value} gate must have exactly 1 fanin, got {arity}")
    elif gate_type in MULTI_INPUT_TYPES:
        if arity < 2:
            raise GateArityError(
                f"{gate_type.value} gate must have >= 2 fanins, got {arity}")
    else:  # pragma: no cover - enum is exhaustive
        raise GateArityError(f"unknown gate type {gate_type!r}")


def evaluate_gate(gate_type: GateType, values: Sequence[int]) -> int:
    """Evaluate a gate on scalar 0/1 fanin values and return 0 or 1.

    XOR/XNOR with more than two fanins compute parity (odd number of ones).
    """
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    if gate_type is GateType.BUF:
        return values[0] & 1
    if gate_type is GateType.NOT:
        return (values[0] & 1) ^ 1
    if gate_type is GateType.AND:
        return int(all(v & 1 for v in values))
    if gate_type is GateType.NAND:
        return int(not all(v & 1 for v in values))
    if gate_type is GateType.OR:
        return int(any(v & 1 for v in values))
    if gate_type is GateType.NOR:
        return int(not any(v & 1 for v in values))
    if gate_type is GateType.XOR:
        return reduce(lambda a, b: a ^ (b & 1), values, 0)
    if gate_type is GateType.XNOR:
        return reduce(lambda a, b: a ^ (b & 1), values, 0) ^ 1
    if gate_type is GateType.INPUT:
        raise ValueError("primary inputs carry values; they are not evaluated")
    if gate_type.is_state:
        raise ValueError(
            f"{gate_type.value} is a state element, not a Boolean function; "
            "unroll the sequential circuit (repro.circuit.unroll) first")
    raise ValueError(f"unknown gate type {gate_type!r}")  # pragma: no cover


@lru_cache(maxsize=None)
def truth_table(gate_type: GateType, arity: int) -> Tuple[int, ...]:
    """Return the gate's truth table as a tuple of 2**arity output bits.

    Entry ``k`` is the output for the input vector whose bit ``t`` (LSB =
    fanin 0) is ``(k >> t) & 1``.  Used by the single-pass algorithm's
    weighted-input-error machinery, which iterates over all input minterms.
    The result is an immutable tuple keyed by (type, arity) alone, so it
    is memoized process-wide — compile/lower paths call this per gate.
    """
    check_arity(gate_type, arity)
    if gate_type.is_state:
        raise ValueError(
            f"{gate_type.value} has no truth table: state elements are "
            "handled by SequentialCircuit, not the combinational algorithms")
    if gate_type.is_constant:
        return (evaluate_gate(gate_type, ()),)
    return tuple(
        evaluate_gate(gate_type, [(k >> t) & 1 for t in range(arity)])
        for k in range(1 << arity)
    )


def inverted_type(gate_type: GateType) -> GateType:
    """Return the gate type computing the complement function, if named.

    ``AND <-> NAND``, ``OR <-> NOR``, ``XOR <-> XNOR``, ``BUF <-> NOT``,
    ``CONST0 <-> CONST1``.  Raises ``ValueError`` for ``INPUT``.
    """
    pairs = {
        GateType.AND: GateType.NAND, GateType.NAND: GateType.AND,
        GateType.OR: GateType.NOR, GateType.NOR: GateType.OR,
        GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR,
        GateType.BUF: GateType.NOT, GateType.NOT: GateType.BUF,
        GateType.CONST0: GateType.CONST1, GateType.CONST1: GateType.CONST0,
    }
    if gate_type not in pairs:
        raise ValueError(f"{gate_type.value} has no complement type")
    return pairs[gate_type]


def base_type(gate_type: GateType) -> Tuple[GateType, bool]:
    """Decompose a gate into (non-inverting base type, output inverted?)."""
    if gate_type in INVERTING_TYPES:
        return _BASE_OF_INVERTING[gate_type], True
    return gate_type, False


#: Mapping from lowercase gate names (as used by netlist formats and the CLI)
#: to :class:`GateType`.
NAME_TO_TYPE = {t.value: t for t in GateType}
NAME_TO_TYPE.update({
    "inv": GateType.NOT,
    "buff": GateType.BUF,
    "buffer": GateType.BUF,
    "vdd": GateType.CONST1,
    "gnd": GateType.CONST0,
    "one": GateType.CONST1,
    "zero": GateType.CONST0,
    "ff": GateType.DFF,
})


def parse_gate_type(name: str) -> GateType:
    """Map a textual gate name (case-insensitive) to a :class:`GateType`."""
    try:
        return NAME_TO_TYPE[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown gate type name {name!r}") from None
