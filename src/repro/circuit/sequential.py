"""Sequential netlists: flip-flops over a combinational core.

A :class:`SequentialCircuit` keeps the library's central invariant — every
:class:`~repro.circuit.circuit.Circuit` is purely combinational — while
letting netlists carry state.  The wrapper holds:

* ``core`` — the combinational logic, where every flip-flop's output
  (its *state name*, the ``Q`` pin) appears as a pseudo primary input;
* ``flops`` — one :class:`FlipFlop` record per state element, naming the
  core node that computes its next-state value (the ``D`` pin).

All reliability machinery stays combinational: analyses either unroll the
wrapper into ``k`` time frames (:func:`repro.circuit.unroll.unroll`) or
iterate the core frame by frame
(:class:`~repro.reliability.sequential.SequentialAnalyzer`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .circuit import Circuit, CircuitError, structural_hash
from .gate import GateType


@dataclass(frozen=True)
class FlipFlop:
    """One state element: output (``Q``) name, data (``D``) driver, kind.

    ``init`` is the optional known power-on value (0/1); ``None`` means the
    initial state is unknown and is modeled as a free input with signal
    probability one half.
    """

    name: str
    data: str
    gate_type: GateType = GateType.DFF
    init: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.gate_type.is_state:
            raise CircuitError(
                f"flip-flop {self.name!r}: gate type "
                f"{self.gate_type.value!r} is not a state element")
        if self.init not in (None, 0, 1):
            raise CircuitError(
                f"flip-flop {self.name!r}: init must be None, 0, or 1, "
                f"got {self.init!r}")


class SequentialCircuit:
    """A stateful netlist: a combinational core plus flip-flop records.

    The core's primary inputs are the union of the true primary inputs and
    the flip-flop state names; the core's outputs are the declared primary
    outputs (next-state drivers need not be outputs — they are named by the
    flop records).
    """

    def __init__(self, core: Circuit, flops: Sequence[FlipFlop],
                 name: Optional[str] = None):
        self.core = core
        self.flops: Tuple[FlipFlop, ...] = tuple(flops)
        self.name = name or core.name
        self._by_name: Dict[str, FlipFlop] = {}
        for ff in self.flops:
            if ff.name in self._by_name:
                raise CircuitError(
                    f"duplicate flip-flop output {ff.name!r}")
            self._by_name[ff.name] = ff

    # -- accessors ------------------------------------------------------
    @property
    def state_names(self) -> List[str]:
        """Flip-flop output (``Q``) names, in declaration order."""
        return [ff.name for ff in self.flops]

    @property
    def inputs(self) -> List[str]:
        """True primary inputs (state pseudo-inputs excluded)."""
        states = set(self._by_name)
        return [pi for pi in self.core.inputs if pi not in states]

    @property
    def outputs(self) -> List[str]:
        return self.core.outputs

    @property
    def num_gates(self) -> int:
        return self.core.num_gates

    @property
    def num_flops(self) -> int:
        return len(self.flops)

    def flop(self, name: str) -> FlipFlop:
        try:
            return self._by_name[name]
        except KeyError:
            raise CircuitError(f"no flip-flop named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.core

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        """Check the wrapper invariants; raise :class:`CircuitError`.

        Every state name must be a primary input of the core, every data
        driver an existing core node, and the core itself valid.
        """
        for ff in self.flops:
            if ff.name not in self.core:
                raise CircuitError(
                    f"flip-flop output {ff.name!r} is not a core node")
            if not self.core.node(ff.name).gate_type.is_input:
                raise CircuitError(
                    f"flip-flop output {ff.name!r} must be a pseudo-input "
                    "of the combinational core")
            if ff.data not in self.core:
                raise CircuitError(
                    f"flip-flop {ff.name!r}: data driver {ff.data!r} is "
                    "not defined in the core")
        self.core.validate()

    # -- identity -------------------------------------------------------
    def structural_signature(self) -> str:
        """SHA-256 over the core structure plus the flop wiring.

        The sequential analogue of
        :func:`repro.circuit.structural_hash`: two
        wrappers with identical cores and identical flop records share a
        signature, so engine sessions can be keyed on it.
        """
        h = hashlib.sha256()
        h.update(structural_hash(self.core).encode())
        for ff in self.flops:
            init = "x" if ff.init is None else str(ff.init)
            h.update(f"|{ff.name}|{ff.gate_type.value}|{ff.data}|{init}"
                     .encode())
        return h.hexdigest()

    def copy(self, name: Optional[str] = None) -> "SequentialCircuit":
        return SequentialCircuit(self.core.copy(), self.flops,
                                 name=name or self.name)

    def __repr__(self) -> str:
        return (f"SequentialCircuit({self.name!r}: "
                f"{len(self.inputs)} inputs, {self.num_gates} gates, "
                f"{self.num_flops} flops, {len(self.outputs)} outputs)")


def is_sequential(obj) -> bool:
    """True when ``obj`` is a :class:`SequentialCircuit`."""
    return isinstance(obj, SequentialCircuit)
