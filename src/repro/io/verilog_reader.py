"""Reader for the structural Verilog subset this library writes.

Supports one module with ``input``/``output``/``wire`` declarations and
``assign`` statements whose right-hand sides are single-operator
expressions (``a & b & c``, ``a ^ b``, ``~(...)``, ``~a``, ``1'b0``,
``1'b1``) plus escaped identifiers — exactly the shape
:func:`repro.io.verilog.dumps_verilog` produces, so netlists round-trip.
General Verilog is out of scope (use the ``.bench``/BLIF readers for
interchange).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..circuit import Circuit, CircuitError, GateType
from .dependency import DependencyCycle, UndefinedReference, dependency_order

_MODULE_RE = re.compile(r"module\s+(\S+)\s*\((.*?)\)\s*;", re.DOTALL)
_DECL_RE = re.compile(r"^\s*(input|output|wire)\s+(.+?)\s*;\s*$")
_ASSIGN_RE = re.compile(r"^\s*assign\s+(.+?)\s*=\s*(.+?)\s*;\s*$")

_OP_TYPES = {
    "&": (GateType.AND, GateType.NAND),
    "|": (GateType.OR, GateType.NOR),
    "^": (GateType.XOR, GateType.XNOR),
}


class VerilogFormatError(CircuitError):
    """Raised for Verilog text outside the supported structural subset."""


def _split_tokens(decl: str) -> List[str]:
    """Split a declaration/port list on commas, honoring escaped names."""
    return [tok.strip() for tok in decl.split(",") if tok.strip()]


def _unescape(name: str) -> str:
    name = name.strip()
    if name.startswith("\\"):
        return name[1:].strip()
    return name


def _parse_operands(expr: str) -> Tuple[Optional[str], List[str]]:
    """Return (operator, operands) for a single-op expression."""
    ops_present = [op for op in "&|^" if op in expr]
    if len(ops_present) > 1:
        raise VerilogFormatError(
            f"mixed operators not supported: {expr!r}")
    if not ops_present:
        return None, [_unescape(expr)]
    op = ops_present[0]
    return op, [_unescape(tok) for tok in expr.split(op)]


def loads_verilog(text: str) -> Circuit:
    """Parse the supported structural-Verilog subset into a circuit."""
    # Strip comments.
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    header = _MODULE_RE.search(text)
    if not header:
        raise VerilogFormatError("no module header found")
    name = header.group(1)
    body = text[header.end():]
    end = body.find("endmodule")
    if end < 0:
        raise VerilogFormatError("missing endmodule")
    body = body[:end]

    inputs: List[str] = []
    outputs: List[str] = []
    assigns: Dict[str, Tuple[Optional[GateType], List[str], int]] = {}
    order: List[str] = []
    # Re-join statements split across lines: statements end with ';'.
    statements = [s.strip() + ";" for s in body.split(";") if s.strip()]
    for stmt in statements:
        decl = _DECL_RE.match(stmt)
        if decl:
            kind, names = decl.group(1), _split_tokens(decl.group(2))
            cleaned = [_unescape(n) for n in names]
            if kind == "input":
                inputs.extend(cleaned)
            elif kind == "output":
                outputs.extend(cleaned)
            continue  # wires carry no information we need
        assign = _ASSIGN_RE.match(stmt)
        if assign:
            target = _unescape(assign.group(1))
            if target in assigns:
                raise VerilogFormatError(f"assign {target!r} defined twice")
            expr = assign.group(2).strip()
            inverted = False
            if expr.startswith("~"):
                inverted = True
                expr = expr[1:].strip()
                if expr.startswith("(") and expr.endswith(")"):
                    expr = expr[1:-1].strip()
            if expr in ("1'b0", "1'b1"):
                const = 1 if expr.endswith("1") else 0
                if inverted:
                    const ^= 1
                assigns[target] = (None, [], const)
                order.append(target)
                continue
            op, operands = _parse_operands(expr)
            if op is None:
                gate_type = GateType.NOT if inverted else GateType.BUF
            else:
                gate_type = _OP_TYPES[op][1 if inverted else 0]
            assigns[target] = (gate_type, operands, -1)
            order.append(target)
            continue
        raise VerilogFormatError(f"unsupported statement: {stmt!r}")

    circuit = Circuit(name)
    for pi in inputs:
        circuit.add_input(pi)
    try:
        for target in dependency_order(
                order, {t: assigns[t][1] for t in order}, set(inputs)):
            gate_type, operands, const = assigns[target]
            if gate_type is None:
                circuit.add_const(target, const)
            else:
                circuit.add_gate(target, gate_type, operands)
    except UndefinedReference as exc:
        raise VerilogFormatError(f"assign {exc.target!r} references "
                                 f"undefined {exc.ref!r}") from None
    except DependencyCycle as exc:
        raise VerilogFormatError(f"combinational cycle involving: "
                                 f"{', '.join(exc.names[:5])}") from None
    for po in outputs:
        if po not in circuit:
            raise VerilogFormatError(f"output {po!r} undefined")
        circuit.set_output(po)
    circuit.validate()
    return circuit


def load_verilog(path: Union[str, Path]) -> Circuit:
    """Read a supported-subset Verilog file from disk."""
    return loads_verilog(Path(path).read_text())
