"""Berkeley Logic Interchange Format (BLIF) reader and writer.

The reader supports ``.model``, ``.inputs``, ``.outputs``, ``.names``
(arbitrary single-output covers), ``.latch``, and ``.end``.  Covers that
match a standard gate (BUF/NOT/AND/NAND/OR/NOR/XOR/XNOR and constants) are
imported as that gate; any other cover is synthesized into a two-level
NOT/AND/OR network so that *every* valid combinational BLIF file can be
analyzed.  ``.latch`` elements parse into a
:class:`~repro.circuit.sequential.SequentialCircuit` (one global clock;
latch type/control tokens are ignored).  Subcircuits are rejected.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuit import (
    Circuit,
    CircuitError,
    FlipFlop,
    GateType,
    SequentialCircuit,
)
from .dependency import DependencyCycle, UndefinedReference, dependency_order


class BlifFormatError(CircuitError):
    """Raised for malformed or unsupported BLIF input."""


def _tokenize(text: str) -> List[List[str]]:
    """Split BLIF text into logical lines (handling ``\\`` continuations)."""
    logical: List[str] = []
    buffer = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.endswith("\\"):
            buffer += line[:-1] + " "
            continue
        logical.append(buffer + line)
        buffer = ""
    if buffer.strip():
        logical.append(buffer)
    return [ln.split() for ln in logical]


def _classify_cover(n_in: int, cubes: List[Tuple[str, str]]
                    ) -> Optional[Tuple[GateType, List[int]]]:
    """Recognize a cover as a standard gate.

    Returns ``(gate_type, input_polarities)`` where polarity 1 means the
    fanin is used directly and 0 means complemented, or ``None`` when the
    cover is not a standard gate shape.  Only covers whose recognized form
    uses every input exactly once qualify.
    """
    if n_in == 0:
        if len(cubes) == 1 and cubes[0][1] == "1":
            return GateType.CONST1, []
        return GateType.CONST0, []
    on_cubes = [c for c, v in cubes if v == "1"]
    off_cubes = [c for c, v in cubes if v == "0"]
    if on_cubes and off_cubes:
        return None  # mixed covers are nonstandard; synthesize
    target = on_cubes if on_cubes else off_cubes
    inverted_output = bool(off_cubes)
    if not target:
        return (GateType.CONST1 if inverted_output else GateType.CONST0), []
    if n_in == 1:
        cube = target[0]
        if len(target) != 1 or cube not in ("0", "1"):
            return None
        pol = 1 if cube == "1" else 0
        if inverted_output:
            pol ^= 1
        return (GateType.BUF if pol else GateType.NOT), [1]
    # Single full cube => AND-like.
    if len(target) == 1 and "-" not in target[0]:
        pols = [1 if ch == "1" else 0 for ch in target[0]]
        return (GateType.NAND if inverted_output else GateType.AND), pols
    # One single-literal cube per input => OR-like.
    if (len(target) == n_in
            and all(c.count("-") == n_in - 1 for c in target)):
        pols: List[Optional[int]] = [None] * n_in
        for cube in target:
            pos = next(i for i, ch in enumerate(cube) if ch != "-")
            if pols[pos] is not None:
                return None
            pols[pos] = 1 if cube[pos] == "1" else 0
        assert all(p is not None for p in pols)
        return (GateType.NOR if inverted_output else GateType.OR), list(pols)
    # Parity covers (all 2^(n-1) odd cubes) => XOR-like.
    if len(target) == 1 << (n_in - 1) and all("-" not in c for c in target):
        ones = {c for c in target}
        odd = {format(k, f"0{n_in}b")[::-1]  # bit i of k = input i
               for k in range(1 << n_in)
               if bin(k).count("1") % 2 == 1}
        odd = {"".join(c) for c in odd}
        if ones == odd:
            gt = GateType.XNOR if inverted_output else GateType.XOR
            return gt, [1] * n_in
        even = {format(k, f"0{n_in}b")[::-1] for k in range(1 << n_in)
                if bin(k).count("1") % 2 == 0}
        if ones == even:
            gt = GateType.XOR if inverted_output else GateType.XNOR
            return gt, [1] * n_in
    return None


class _BlifBuilder:
    """Accumulates parsed .names entries, then emits in dependency order."""

    def __init__(self, model: str):
        self.model = model
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        # target -> (fanins, cubes)
        self.covers: Dict[str, Tuple[List[str], List[Tuple[str, str]]]] = {}
        self.order: List[str] = []
        # .latch records: (data, output, init-or-None), in file order.
        self.latches: List[Tuple[str, str, Optional[int]]] = []

    def build(self) -> Union[Circuit, SequentialCircuit]:
        circuit = Circuit(self.model)
        for pi in self.inputs:
            circuit.add_input(pi)
        latch_outputs = [q for _, q, _ in self.latches]
        for q in latch_outputs:
            if q in circuit or q in self.covers:
                raise BlifFormatError(f"latch output {q!r} defined twice")
            # Latch outputs are pseudo-inputs of the combinational core.
            circuit.add_input(q)
        defined = set(self.inputs) | set(self.covers) | set(latch_outputs)
        for d, q, _ in self.latches:
            if d not in defined:
                raise BlifFormatError(
                    f".latch {q!r}: data input {d!r} is undefined")
        counter = [0]

        def fresh() -> str:
            while True:
                cand = f"_blif{counter[0]}"
                counter[0] += 1
                if cand not in circuit and cand not in self.covers:
                    return cand

        def emit(target: str) -> None:
            fanins, cubes = self.covers[target]
            std = _classify_cover(len(fanins), cubes)
            if std is not None:
                gate_type, pols = std
                if gate_type.is_constant:
                    circuit.add_const(
                        target, 1 if gate_type is GateType.CONST1 else 0)
                    return
                wired = []
                for fi, pol in zip(fanins, pols):
                    if pol:
                        wired.append(fi)
                    else:
                        inv = fresh()
                        circuit.add_gate(inv, GateType.NOT, [fi])
                        wired.append(inv)
                if gate_type in (GateType.BUF, GateType.NOT):
                    circuit.add_gate(target, gate_type, [wired[0]])
                else:
                    circuit.add_gate(target, gate_type, wired)
                return
            _synthesize_cover(circuit, target, fanins, cubes, fresh)

        try:
            for t in dependency_order(
                    self.order, {t: self.covers[t][0] for t in self.order},
                    set(self.inputs) | set(latch_outputs)):
                emit(t)
        except UndefinedReference as exc:
            raise BlifFormatError(f".names {exc.target!r} references "
                                  f"undefined {exc.ref!r}") from None
        except DependencyCycle as exc:
            raise BlifFormatError(f"combinational cycle involving: "
                                  f"{', '.join(exc.names[:5])}") from None
        for po in self.outputs:
            if po not in circuit:
                raise BlifFormatError(f"output {po!r} is undefined")
            circuit.set_output(po)
        circuit.validate()
        if self.latches:
            seq = SequentialCircuit(
                circuit,
                [FlipFlop(name=q, data=d, gate_type=GateType.DFF, init=init)
                 for d, q, init in self.latches],
                name=self.model)
            seq.validate()
            return seq
        return circuit


def _synthesize_cover(circuit: Circuit, target: str, fanins: List[str],
                      cubes: List[Tuple[str, str]], fresh) -> None:
    """Emit a two-level network realizing an arbitrary single-output cover."""
    on_cubes = [c for c, v in cubes if v == "1"]
    off_cubes = [c for c, v in cubes if v == "0"]
    use_cubes, invert = (on_cubes, False) if on_cubes else (off_cubes, True)
    inverters: Dict[str, str] = {}

    def inverted(fi: str) -> str:
        if fi not in inverters:
            inv = fresh()
            circuit.add_gate(inv, GateType.NOT, [fi])
            inverters[fi] = inv
        return inverters[fi]

    products: List[str] = []
    for cube in use_cubes:
        if len(cube) != len(fanins):
            raise BlifFormatError(
                f".names {target!r}: cube {cube!r} has wrong width")
        lits = []
        for fi, ch in zip(fanins, cube):
            if ch == "1":
                lits.append(fi)
            elif ch == "0":
                lits.append(inverted(fi))
            elif ch != "-":
                raise BlifFormatError(
                    f".names {target!r}: bad cube character {ch!r}")
        if not lits:
            # Tautological cube: constant output.
            circuit.add_const(target, 0 if invert else 1)
            return
        if len(lits) == 1:
            products.append(lits[0])
        else:
            p = fresh()
            circuit.add_gate(p, GateType.AND, lits)
            products.append(p)
    if not products:
        circuit.add_const(target, 1 if invert else 0)
    elif len(products) == 1:
        circuit.add_gate(target, GateType.NOT if invert else GateType.BUF,
                         [products[0]])
    else:
        circuit.add_gate(target, GateType.NOR if invert else GateType.OR,
                         products)


def loads_blif(text: str, name: Optional[str] = None
               ) -> Union[Circuit, SequentialCircuit]:
    """Parse BLIF text into a circuit.

    Returns a :class:`SequentialCircuit` when the model declares
    ``.latch`` elements, else a plain combinational :class:`Circuit`.
    """
    lines = _tokenize(text)
    builder: Optional[_BlifBuilder] = None
    current_names: Optional[Tuple[str, List[str]]] = None
    cubes: List[Tuple[str, str]] = []

    def flush_names() -> None:
        nonlocal current_names, cubes
        if current_names is None:
            return
        target, fanins = current_names
        assert builder is not None
        if target in builder.covers:
            raise BlifFormatError(f"node {target!r} defined twice")
        builder.covers[target] = (fanins, list(cubes))
        builder.order.append(target)
        current_names, cubes = None, []

    for tokens in lines:
        head = tokens[0]
        if head.startswith("."):
            flush_names()
            directive = head.lower()
            if directive == ".model":
                builder = _BlifBuilder(
                    name or (tokens[1] if len(tokens) > 1 else "blif"))
            elif directive == ".inputs":
                _require(builder, head).inputs.extend(tokens[1:])
            elif directive == ".outputs":
                _require(builder, head).outputs.extend(tokens[1:])
            elif directive == ".names":
                if len(tokens) < 2:
                    raise BlifFormatError(".names requires a target signal")
                current_names = (tokens[-1], tokens[1:-1])
            elif directive == ".end":
                break
            elif directive == ".latch":
                _require(builder, head).latches.append(_parse_latch(tokens))
            elif directive in (".subckt", ".gate", ".mlatch"):
                raise BlifFormatError(
                    f"{directive} is not supported")
            else:
                # Unknown dot-directives (e.g. .default_input_arrival) are
                # ignored for interoperability.
                continue
        else:
            if current_names is None:
                raise BlifFormatError(f"unexpected line: {' '.join(tokens)}")
            n_in = len(current_names[1])
            if n_in == 0:
                if len(tokens) != 1 or tokens[0] not in ("0", "1"):
                    raise BlifFormatError(
                        f"bad constant row for {current_names[0]!r}")
                cubes.append(("", tokens[0]))
            else:
                if len(tokens) != 2:
                    raise BlifFormatError(
                        f"bad cover row for {current_names[0]!r}: "
                        f"{' '.join(tokens)}")
                if len(tokens[0]) != n_in:
                    raise BlifFormatError(
                        f"cube {tokens[0]!r} for {current_names[0]!r} has "
                        f"width {len(tokens[0])}, expected {n_in}")
                if tokens[1] not in ("0", "1"):
                    raise BlifFormatError(
                        f"cover output must be 0 or 1, got {tokens[1]!r}")
                cubes.append((tokens[0], tokens[1]))
    flush_names()
    if builder is None:
        raise BlifFormatError("no .model found")
    return builder.build()


def _require(builder: Optional[_BlifBuilder], directive: str) -> _BlifBuilder:
    if builder is None:
        raise BlifFormatError(f"{directive} before .model")
    return builder


def _parse_latch(tokens: List[str]) -> Tuple[str, str, Optional[int]]:
    """Parse ``.latch <input> <output> [<type> <control>] [<init-val>]``.

    The optional init value follows the BLIF convention: 0/1 are known
    power-on states, 2 (don't care) and 3 (unknown) map to ``None``.
    Latch type and control tokens are accepted and ignored (the library
    models one global clock).
    """
    body = tokens[1:]
    if len(body) < 2:
        raise BlifFormatError(
            ".latch requires <input> <output> "
            "[<type> <control>] [<init-val>]")
    d, q = body[0], body[1]
    rest = body[2:]
    init: Optional[int] = None
    if rest and rest[-1] in ("0", "1", "2", "3"):
        value = int(rest.pop())
        init = value if value in (0, 1) else None
    if len(rest) not in (0, 2):
        raise BlifFormatError(
            f".latch {q!r}: unexpected tokens {' '.join(rest)!r}")
    return d, q, init


def load_blif(path: Union[str, Path]) -> Union[Circuit, SequentialCircuit]:
    """Read a BLIF file from disk."""
    path = Path(path)
    return loads_blif(path.read_text(), name=path.stem)


_COVER_OF_TYPE = {
    GateType.BUF: lambda n: [("1", "1")],
    GateType.NOT: lambda n: [("0", "1")],
    GateType.AND: lambda n: [("1" * n, "1")],
    GateType.NAND: lambda n: [("1" * n, "0")],
    GateType.OR: lambda n: [("-" * i + "1" + "-" * (n - i - 1), "1")
                            for i in range(n)],
    GateType.NOR: lambda n: [("-" * i + "1" + "-" * (n - i - 1), "0")
                             for i in range(n)],
}


def dumps_blif(circuit: Union[Circuit, SequentialCircuit]) -> str:
    """Serialize a circuit to BLIF text (XOR/XNOR emitted as parity covers).

    Sequential circuits emit one ``.latch`` line per state element (init
    value 3 — unknown — unless the flop carries a known ``init``).
    """
    latch_lines: List[str] = []
    if isinstance(circuit, SequentialCircuit):
        seq = circuit
        for ff in seq.flops:
            init = 3 if ff.init is None else ff.init
            latch_lines.append(f".latch {ff.data} {ff.name} {init}")
        inputs = seq.inputs
        circuit = seq.core
    else:
        inputs = circuit.inputs
    lines = [f".model {circuit.name}",
             ".inputs " + " ".join(inputs),
             ".outputs " + " ".join(circuit.outputs)]
    lines.extend(latch_lines)
    for node in circuit:
        if node.gate_type.is_input:
            continue
        if node.gate_type.is_constant:
            lines.append(f".names {node.name}")
            if node.gate_type is GateType.CONST1:
                lines.append("1")
            continue
        lines.append(f".names {' '.join(node.fanins)} {node.name}")
        n = node.arity
        if node.gate_type in _COVER_OF_TYPE:
            rows = _COVER_OF_TYPE[node.gate_type](n)
            lines.extend(f"{cube} {val}" for cube, val in rows)
        else:  # XOR / XNOR: explicit parity cover
            want = 1 if node.gate_type is GateType.XOR else 0
            for k in range(1 << n):
                if bin(k).count("1") % 2 == want:
                    cube = "".join(str((k >> i) & 1) for i in range(n))
                    lines.append(f"{cube} 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def save_blif(circuit: Union[Circuit, SequentialCircuit],
              path: Union[str, Path]) -> None:
    """Write a circuit to a BLIF file."""
    Path(path).write_text(dumps_blif(circuit))
