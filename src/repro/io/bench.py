"""ISCAS-85/89 ``.bench`` netlist reader and writer.

The ``.bench`` format is the lingua franca for the benchmark family the
paper evaluates (c499, c1355, c1908, ...)::

    # c17
    INPUT(1)
    INPUT(2)
    OUTPUT(22)
    10 = NAND(1, 3)
    22 = NAND(10, 16)

Files may define gates in any order; the reader resolves forward references
and rejects combinational cycles.  Sequential elements (``DFF``/``LATCH``,
the ISCAS-89 extension) are supported: ``q = DFF(d)`` declares a state
element whose output ``q`` is a pseudo-input of the combinational core and
whose next-state driver is ``d``.  A netlist containing any state element
parses into a :class:`~repro.circuit.sequential.SequentialCircuit`;
otherwise the plain combinational :class:`~repro.circuit.Circuit` is
returned, exactly as before.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple, Union

from ..circuit import (
    Circuit,
    CircuitError,
    FlipFlop,
    GateType,
    SequentialCircuit,
    parse_gate_type,
)
from .dependency import DependencyCycle, UndefinedReference, dependency_order

_LINE_RE = re.compile(
    r"^\s*(?P<name>[^\s=()]+)\s*=\s*(?P<op>[A-Za-z0-9_]+)\s*"
    r"\((?P<args>[^)]*)\)\s*$")
_DECL_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([^)\s]+)\s*\)\s*$",
                      re.IGNORECASE)


class BenchFormatError(CircuitError):
    """Raised for malformed ``.bench`` input."""


def loads_bench(text: str, name: str = "bench"
                ) -> Union[Circuit, SequentialCircuit]:
    """Parse ``.bench`` text into a circuit.

    Returns a :class:`SequentialCircuit` when the netlist declares DFF or
    LATCH elements, else a plain combinational :class:`Circuit`.
    """
    inputs: List[str] = []
    outputs: List[str] = []
    gates: Dict[str, Tuple[GateType, List[str]]] = {}
    flops: Dict[str, Tuple[GateType, str]] = {}
    order: List[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        decl = _DECL_RE.match(line)
        if decl:
            kind, node = decl.group(1).upper(), decl.group(2)
            (inputs if kind == "INPUT" else outputs).append(node)
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise BenchFormatError(f"line {lineno}: cannot parse {raw!r}")
        gate_name = m.group("name")
        op = m.group("op").lower()
        try:
            gate_type = parse_gate_type(op)
        except ValueError as exc:
            raise BenchFormatError(f"line {lineno}: {exc}") from None
        args = [a.strip() for a in m.group("args").split(",") if a.strip()]
        if gate_name in gates or gate_name in flops or gate_name in inputs:
            raise BenchFormatError(
                f"line {lineno}: node {gate_name!r} defined twice")
        if gate_type.is_state:
            if len(args) != 1:
                raise BenchFormatError(
                    f"line {lineno}: {op.upper()} takes exactly one "
                    f"data input, got {len(args)}")
            flops[gate_name] = (gate_type, args[0])
            continue
        gates[gate_name] = (gate_type, args)
        order.append(gate_name)

    circuit = Circuit(name)
    for pi in inputs:
        circuit.add_input(pi)
    # Flip-flop outputs are pseudo-inputs of the combinational core:
    # any gate may read them, and the flop record names their driver.
    for q in flops:
        circuit.add_input(q)

    defined = set(inputs) | set(flops) | set(gates)
    for q, (_, data) in flops.items():
        if data not in defined:
            raise BenchFormatError(
                f"flip-flop {q!r}: next-state driver {data!r} is undefined")
    consumed = {fi for _, (_, args) in gates.items() for fi in args}
    consumed.update(data for _, data in flops.values())
    for q in flops:
        if q not in consumed and q not in outputs:
            raise BenchFormatError(
                f"flip-flop output {q!r} feeds no gate and is not an "
                f"output (dangling state element)")

    # Emit gates in dependency order (files may forward-reference).
    try:
        for g in dependency_order(order, {g: gates[g][1] for g in order},
                                  set(inputs) | set(flops)):
            gate_type, args = gates[g]
            circuit.add_gate(g, gate_type, args)
    except UndefinedReference as exc:
        raise BenchFormatError(f"gate {exc.target!r} references undefined "
                               f"node {exc.ref!r}") from None
    except DependencyCycle as exc:
        raise BenchFormatError(f"combinational cycle involving: "
                               f"{', '.join(exc.names[:5])}") from None

    for po in outputs:
        if po not in circuit:
            raise BenchFormatError(f"OUTPUT({po}) is undefined")
        circuit.set_output(po)
    circuit.validate()
    if flops:
        seq = SequentialCircuit(
            circuit,
            [FlipFlop(name=q, data=data, gate_type=gate_type)
             for q, (gate_type, data) in flops.items()],
            name=name)
        seq.validate()
        return seq
    return circuit


def load_bench(path: Union[str, Path]) -> Union[Circuit, SequentialCircuit]:
    """Read a ``.bench`` file from disk."""
    path = Path(path)
    return loads_bench(path.read_text(), name=path.stem)


def dumps_bench(circuit: Union[Circuit, SequentialCircuit]) -> str:
    """Serialize a circuit to ``.bench`` text.

    Sequential circuits emit one ``q = DFF(d)`` (or ``LATCH``) line per
    state element; their state pseudo-inputs are not declared as INPUTs.
    Constants are not representable in ``.bench``; circuits containing
    CONST0/CONST1 nodes raise :class:`BenchFormatError`.
    """
    flops: Tuple = ()
    if isinstance(circuit, SequentialCircuit):
        seq = circuit
        flops = seq.flops
        core = seq.core
        lines = [f"# {seq.name}", f"# {len(seq.inputs)} inputs, "
                 f"{len(seq.outputs)} outputs, {seq.num_flops} flops, "
                 f"{seq.num_gates} gates"]
        pis = seq.inputs
    else:
        core = circuit
        lines = [f"# {circuit.name}", f"# {len(circuit.inputs)} inputs, "
                 f"{len(circuit.outputs)} outputs, "
                 f"{circuit.num_gates} gates"]
        pis = circuit.inputs
    for pi in pis:
        lines.append(f"INPUT({pi})")
    for po in core.outputs:
        lines.append(f"OUTPUT({po})")
    lines.append("")
    for ff in flops:
        lines.append(f"{ff.name} = {ff.gate_type.value.upper()}({ff.data})")
    for gname in core.topological_gates():
        node = core.node(gname)
        lines.append(
            f"{gname} = {node.gate_type.value.upper()}"
            f"({', '.join(node.fanins)})")
    for node in core:
        if node.gate_type.is_constant:
            raise BenchFormatError(
                f"constant node {node.name!r} cannot be written to .bench")
    return "\n".join(lines) + "\n"


def save_bench(circuit: Union[Circuit, SequentialCircuit],
               path: Union[str, Path]) -> None:
    """Write a circuit to a ``.bench`` file."""
    Path(path).write_text(dumps_bench(circuit))
