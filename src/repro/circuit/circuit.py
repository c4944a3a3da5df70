"""The :class:`Circuit` netlist data structure.

A circuit is a DAG of named nodes.  Primary inputs have type
:attr:`~repro.circuit.gate.GateType.INPUT`; every other node is a constant or
a logic gate with an ordered tuple of fanin node names.  Any node may be
marked as a primary output (the same node may drive several named outputs,
which matters for multi-output reliability consolidation).

The class is append-only during construction and keeps its derived views
(topological order, input and gate lists, fanout map, levels) current as
nodes arrive: nodes are entered in topological order, so each append only
adds its own entries.
All reliability algorithms operate on these views.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .gate import GateType, check_arity, evaluate_gate


class CircuitError(ValueError):
    """Raised for structurally invalid circuit constructions or queries."""


@dataclass(frozen=True)
class Node:
    """A single netlist node: a primary input, constant, or logic gate."""

    name: str
    gate_type: GateType
    fanins: Tuple[str, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.fanins)


def _check_gate(name: str, gate_type: GateType, arity: int) -> None:
    """Raise unless a combinational gate of ``gate_type`` takes ``arity``
    fanins."""
    if isinstance(gate_type, str):
        raise TypeError("gate_type must be a GateType, not str")
    if gate_type.is_state:
        raise CircuitError(
            f"gate {name!r}: {gate_type.value} is a state element; "
            "Circuit is combinational — build a SequentialCircuit "
            "(repro.circuit.sequential) and unroll it for analysis")
    low, high = gate_type.fanin_bounds
    if not low <= arity <= high:
        check_arity(gate_type, arity)  # raises with the message


class Circuit:
    """A combinational logic circuit represented as a named-node DAG.

    Parameters
    ----------
    name:
        Human-readable circuit name (used by writers and reports).

    Notes
    -----
    Node insertion order is preserved and used as a tie-break in the
    topological order, so circuits are fully deterministic across runs.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._outputs: List[str] = []
        self._fanouts: Dict[str, List[str]] = {}
        self._levels: Dict[str, int] = {}
        self._inputs: List[str] = []
        self._gates: List[str] = []
        #: Memoized :func:`structural_hash`; every mutator clears it.
        self._structural_hash: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Add a primary input node and return its name."""
        self._add_node(Node(name, GateType.INPUT))
        return name

    def add_const(self, name: str, value: int) -> str:
        """Add a constant driver node with the given 0/1 value."""
        gate_type = GateType.CONST1 if value else GateType.CONST0
        self._add_node(Node(name, gate_type))
        return name

    def add_gate(self, name: str, gate_type: GateType,
                 fanins: Sequence[str]) -> str:
        """Add a logic gate node.

        ``fanins`` must already exist in the circuit; this enforces that the
        netlist is entered in topological order, which keeps cycle detection
        trivial and matches how netlist files are parsed (forward references
        are resolved by the parsers before calling this).
        """
        fanins = tuple(fanins)
        _check_gate(name, gate_type, len(fanins))
        self._add_node(Node(name, gate_type, fanins))
        return name

    def retyped(self, name: str, gate_type: GateType) -> "Circuit":
        """A copy with gate ``name``'s type replaced and its fanins kept.

        The new type passes :meth:`add_gate`'s checks (same errors) before
        anything is copied; node order, levels and fanouts carry over, as
        one changed type cannot move them.
        """
        node = self.node(name)
        _check_gate(name, gate_type, node.arity)
        dup = self.copy()
        dup._nodes[name] = Node(name, gate_type, node.fanins)
        return dup

    def set_output(self, name: str) -> None:
        """Mark an existing node as a primary output.

        A node may be listed as an output only once; multi-output circuits
        list several distinct nodes.
        """
        if name not in self._nodes:
            raise CircuitError(f"cannot mark unknown node {name!r} as output")
        if name in self._outputs:
            raise CircuitError(f"node {name!r} is already an output")
        self._outputs.append(name)
        self._structural_hash = None

    def _add_node(self, node: Node) -> None:
        name = node.name
        if name in self._nodes:
            raise CircuitError(f"duplicate node name {name!r}")
        if not name:
            raise CircuitError("node name must be non-empty")
        levels = self._levels
        # One pass over the fanins checks they exist and finds the level;
        # inputs and constants have no fanins and sit at level 0.
        level = 0
        for fi in node.fanins:
            fanin_level = levels.get(fi)
            if fanin_level is None:
                raise CircuitError(
                    f"gate {name!r}: fanin {fi!r} is not defined yet")
            if fanin_level >= level:
                level = fanin_level + 1
        levels[name] = level
        self._nodes[name] = node
        self._structural_hash = None
        gate_type = node.gate_type
        if gate_type.is_input:
            self._inputs.append(name)
        elif gate_type.is_logic:
            self._gates.append(name)
        for fi in dict.fromkeys(node.fanins):
            self._fanouts.setdefault(fi, []).append(name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        """Return the :class:`Node` with the given name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise CircuitError(f"no node named {name!r}") from None

    @property
    def nodes(self) -> Mapping[str, Node]:
        """Read-only view of all nodes, in insertion order."""
        return dict(self._nodes)

    @property
    def inputs(self) -> List[str]:
        """Primary input names, in insertion order."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        """Primary output names, in the order they were declared."""
        return list(self._outputs)

    @property
    def gates(self) -> List[str]:
        """Names of all logic gates (excludes inputs and constants)."""
        return list(self._gates)

    @property
    def num_gates(self) -> int:
        """Number of logic gates — the 'size' column of the paper's Table 2."""
        return len(self._gates)

    def fanins(self, name: str) -> Tuple[str, ...]:
        return self.node(name).fanins

    def fanouts(self, name: str) -> Tuple[str, ...]:
        """Names of nodes that use ``name`` as a fanin (with multiplicity 1).

        A gate using the same fanin twice appears once here; use
        :meth:`fanout_count` for wire multiplicity.
        """
        return tuple(self._fanouts.get(name, ()))

    def fanout_count(self, name: str) -> int:
        """Number of fanout *wires* leaving a node (counts multiplicity)."""
        return sum(self._nodes[g].fanins.count(name)
                   for g in self._fanouts.get(name, ()))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """All node names in a topological order (inputs first).

        Insertion order is one: every fanin exists before its gate."""
        return list(self._nodes)

    def topological_gates(self) -> List[str]:
        """Logic-gate names only, in topological order."""
        return list(self._gates)

    def level(self, name: str) -> int:
        """Logic level of a node: 0 for inputs/constants, else 1 + max fanin."""
        return self._levels[self.node(name).name]

    @property
    def depth(self) -> int:
        """Maximum logic level over all nodes (0 for a gate-free circuit)."""
        return max(self._levels.values(), default=0)

    def transitive_fanin(self, names: Iterable[str],
                         include_roots: bool = True) -> List[str]:
        """Nodes in the transitive fanin cone of ``names``, topologically.

        Includes primary inputs.  ``include_roots`` controls whether the seed
        nodes themselves are part of the result.
        """
        roots = [self.node(n).name for n in names]
        wanted = set(roots)
        stack = list(roots)
        while stack:
            cur = stack.pop()
            for fi in self._nodes[cur].fanins:
                if fi not in wanted:
                    wanted.add(fi)
                    stack.append(fi)
        if not include_roots:
            wanted -= set(roots)
        return [n for n in self.topological_order() if n in wanted]

    def cone(self, output: str, name: Optional[str] = None) -> "Circuit":
        """Extract the single-output sub-circuit feeding ``output``.

        The returned circuit contains exactly the transitive fanin cone of
        ``output`` and declares ``output`` as its only primary output.
        """
        keep = set(self.transitive_fanin([output]))
        sub = Circuit(name or f"{self.name}_cone_{output}")
        for node_name in self.topological_order():
            if node_name not in keep:
                continue
            node = self._nodes[node_name]
            sub._add_node(node)
        sub.set_output(output)
        return sub

    def subcircuit(self, outputs: Iterable[str],
                   name: Optional[str] = None) -> "Circuit":
        """Extract the union-cone sub-circuit feeding ``outputs``.

        The multi-output generalization of :meth:`cone`: the result holds
        exactly the union of the transitive fanin cones of ``outputs``
        (primary inputs keep their relative order) and declares the given
        nodes — in this circuit's output order where applicable, appended
        otherwise — as its primary outputs.
        """
        wanted = [self.node(o).name for o in outputs]
        if not wanted:
            raise CircuitError("subcircuit needs at least one output")
        keep = set(self.transitive_fanin(wanted))
        sub = Circuit(name or f"{self.name}_cone")
        for node_name in self.topological_order():
            if node_name in keep:
                sub._add_node(self._nodes[node_name])
        wanted_set = set(wanted)
        ordered = [o for o in self._outputs if o in wanted_set]
        ordered += [o for o in wanted if o not in ordered]
        for out in ordered:
            sub.set_output(out)
        return sub

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Return an independent copy of this circuit."""
        dup = Circuit(name or self.name)
        dup._nodes = dict(self._nodes)
        dup._outputs = list(self._outputs)
        dup._fanouts = {k: list(v) for k, v in self._fanouts.items()}
        dup._levels = dict(self._levels)
        dup._inputs = list(self._inputs)
        dup._gates = list(self._gates)
        return dup

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate every node for one primary-input assignment.

        ``assignment`` maps each primary input name to 0/1.  Returns a dict
        from every node name to its value.  This is the slow reference
        evaluator; simulation uses :mod:`repro.sim`.
        """
        values: Dict[str, int] = {}
        for name in self.topological_order():
            node = self._nodes[name]
            if node.gate_type.is_input:
                try:
                    values[name] = assignment[name] & 1
                except KeyError:
                    raise CircuitError(
                        f"no value supplied for primary input {name!r}"
                    ) from None
            else:
                values[name] = evaluate_gate(
                    node.gate_type, [values[fi] for fi in node.fanins])
        return values

    def evaluate_outputs(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate and return only the primary-output values."""
        values = self.evaluate(assignment)
        return {o: values[o] for o in self._outputs}

    # ------------------------------------------------------------------
    # Validation and reporting
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`CircuitError` if broken.

        Checks: at least one output, every output defined, no dangling logic
        (warning-level issues are not raised), arity rules already enforced
        at construction.
        """
        if not self._outputs:
            raise CircuitError(f"circuit {self.name!r} declares no outputs")
        for out in self._outputs:
            if out not in self._nodes:
                raise CircuitError(f"output {out!r} is undefined")

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}: {len(self.inputs)} inputs, "
                f"{self.num_gates} gates, {len(self._outputs)} outputs)")

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())


def structural_hash(circuit: Circuit) -> str:
    """SHA-256 digest of the circuit's structure (not its name).

    Two circuits hash equal iff they have the same inputs (in order), the
    same outputs (in order), and the same gates — name, type and ordered
    fanin list — in topological order.  Gate failure probabilities, weight
    sources and other analysis state do not participate.  The digest is
    memoized on the circuit until its next mutation.
    """
    digest = circuit._structural_hash
    if digest is None:
        lines = ["inputs:" + ",".join(circuit._inputs),
                 "outputs:" + ",".join(circuit._outputs)]
        lines.extend(
            f"{node.name}|{node.gate_type.value}|{','.join(node.fanins)}"
            for node in circuit._nodes.values())
        lines.append("")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        circuit._structural_hash = digest
    return digest
