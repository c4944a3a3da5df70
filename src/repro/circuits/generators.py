"""Parameterized circuit generators.

Structured arithmetic/datapath generators (adders, multipliers, parity
trees, decoders, comparators, voters) plus a seeded random multilevel-logic
generator.  All generators are deterministic functions of their arguments,
so benchmark results are reproducible bit-for-bit.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence

import numpy as np

from ..circuit import Circuit, CircuitBuilder, GateType


def c17() -> Circuit:
    """The ISCAS-85 c17 benchmark (6 NAND gates) — reproduced exactly.

    c17 is small enough that its published netlist is universally known;
    it anchors the stand-in catalog with one true ISCAS circuit.
    """
    c = Circuit("c17")
    for pi in ("1", "2", "3", "6", "7"):
        c.add_input(pi)
    c.add_gate("10", GateType.NAND, ["1", "3"])
    c.add_gate("11", GateType.NAND, ["3", "6"])
    c.add_gate("16", GateType.NAND, ["2", "11"])
    c.add_gate("19", GateType.NAND, ["11", "7"])
    c.add_gate("22", GateType.NAND, ["10", "16"])
    c.add_gate("23", GateType.NAND, ["16", "19"])
    c.set_output("22")
    c.set_output("23")
    return c


def full_adder(b: CircuitBuilder, a: str, bb: str, cin: str) -> tuple:
    """Emit one full adder; returns (sum, carry) node names."""
    axb = b.xor(a, bb)
    s = b.xor(axb, cin)
    cout = b.or_(b.and_(a, bb), b.and_(axb, cin))
    return s, cout


def ripple_carry_adder(width: int, name: Optional[str] = None) -> Circuit:
    """A ``width``-bit ripple-carry adder: a + b + cin -> sum, cout."""
    if width < 1:
        raise ValueError("width must be >= 1")
    b = CircuitBuilder(name or f"rca{width}")
    a_bus = b.input_bus("a", width)
    b_bus = b.input_bus("b", width)
    carry = b.input("cin")
    sums: List[str] = []
    for i in range(width):
        s, carry = full_adder(b, a_bus[i], b_bus[i], carry)
        sums.append(s)
    for i, s in enumerate(sums):
        b.outputs(**{f"sum{i}": s})
    b.outputs(cout=carry)
    return b.build()


def parity_tree(width: int, name: Optional[str] = None) -> Circuit:
    """Balanced XOR tree computing the parity of ``width`` inputs."""
    if width < 2:
        raise ValueError("width must be >= 2")
    b = CircuitBuilder(name or f"parity{width}")
    layer = list(b.input_bus("x", width))
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(b.xor(layer[i], layer[i + 1]))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    b.outputs(parity=layer[0])
    return b.build()


def mux_tree(select_bits: int, name: Optional[str] = None) -> Circuit:
    """A ``2**select_bits``-to-1 multiplexer built from 2-to-1 muxes."""
    if select_bits < 1:
        raise ValueError("select_bits must be >= 1")
    b = CircuitBuilder(name or f"mux{1 << select_bits}")
    data = b.input_bus("d", 1 << select_bits)
    sel = b.input_bus("s", select_bits)
    layer = list(data)
    for level in range(select_bits):
        s = sel[level]
        s_n = b.not_(s)
        nxt = []
        for i in range(0, len(layer), 2):
            lo = b.and_(layer[i], s_n)
            hi = b.and_(layer[i + 1], s)
            nxt.append(b.or_(lo, hi))
        layer = nxt
    b.outputs(y=layer[0])
    return b.build()


def equality_comparator(width: int, name: Optional[str] = None) -> Circuit:
    """``width``-bit equality comparator: out = 1 iff a == b."""
    if width < 1:
        raise ValueError("width must be >= 1")
    b = CircuitBuilder(name or f"cmp{width}")
    a_bus = b.input_bus("a", width)
    b_bus = b.input_bus("b", width)
    eq_bits = [b.xnor(a_bus[i], b_bus[i]) for i in range(width)]
    acc = eq_bits[0]
    for bit in eq_bits[1:]:
        acc = b.and_(acc, bit)
    b.outputs(eq=acc)
    return b.build()


def one_hot_decoder(select_bits: int, name: Optional[str] = None) -> Circuit:
    """``select_bits``-to-``2**select_bits`` one-hot decoder."""
    if select_bits < 1:
        raise ValueError("select_bits must be >= 1")
    b = CircuitBuilder(name or f"dec{select_bits}")
    sel = b.input_bus("s", select_bits)
    sel_n = [b.not_(s) for s in sel]
    for code in range(1 << select_bits):
        lits = [sel[t] if (code >> t) & 1 else sel_n[t]
                for t in range(select_bits)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = b.and_(acc, lit)
        b.outputs(**{f"y{code}": acc})
    return b.build()


def majority_voter(n: int = 3, name: Optional[str] = None) -> Circuit:
    """Majority-of-n voter (n odd), as OR of minimal AND terms."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    from itertools import combinations
    b = CircuitBuilder(name or f"maj{n}")
    xs = b.input_bus("x", n)
    k = n // 2 + 1
    terms = []
    for combo in combinations(range(n), k):
        acc = xs[combo[0]]
        for t in combo[1:]:
            acc = b.and_(acc, xs[t])
        terms.append(acc)
    acc = terms[0]
    for t in terms[1:]:
        acc = b.or_(acc, t)
    b.outputs(maj=acc)
    return b.build()


def array_multiplier(width: int, name: Optional[str] = None) -> Circuit:
    """``width x width`` unsigned array multiplier (carry-save rows)."""
    if width < 2:
        raise ValueError("width must be >= 2")
    b = CircuitBuilder(name or f"mult{width}")
    a_bus = b.input_bus("a", width)
    b_bus = b.input_bus("b", width)
    # Partial products.
    pp = [[b.and_(a_bus[i], b_bus[j]) for i in range(width)]
          for j in range(width)]
    # Row-by-row ripple accumulation.
    acc = list(pp[0])  # bits 0..width-1 of the running sum
    outs = [acc.pop(0)]  # product bit 0
    carry: Optional[str] = None
    for j in range(1, width):
        row = pp[j]
        new_acc: List[str] = []
        carry = None
        for i in range(width):
            x = row[i]
            y = acc[i] if i < len(acc) else None
            if y is None and carry is None:
                s = x
            elif y is None:
                s = b.xor(x, carry)
                carry = b.and_(x, carry)
            elif carry is None:
                s = b.xor(x, y)
                carry = b.and_(x, y)
            else:
                s, carry = full_adder(b, x, y, carry)
            new_acc.append(s)
        outs.append(new_acc.pop(0))
        acc = new_acc + ([carry] if carry else [])
    for bit in acc:
        outs.append(bit)
    for i, o in enumerate(outs):
        b.outputs(**{f"p{i}": o})
    return b.build()


class _Pcg64Replay:
    """``Generator.random()`` / ``.integers(n)`` of ``default_rng(seed)``,
    replayed from bulk raw words.

    PCG64 serves both draws from one stream of 64-bit words.
    ``random()`` takes the next word ``w`` and returns
    ``(w >> 11) * 2**-53``.  ``integers(n)`` takes a 32-bit half — the
    low half of a fresh word, whose high half is buffered for the next
    32-bit draw — and maps it onto ``[0, n)`` with Lemire's
    multiply-shift, rejecting the biased low products.  Fetching the
    words with one ``random_raw`` call per block replays exactly that
    stream without a numpy call per draw.
    """

    _BLOCK = 1 << 14

    def __init__(self, seed: int):
        self._bit_generator = np.random.default_rng(seed).bit_generator
        self._next_word = iter(()).__next__
        self._half: Optional[int] = None

    def _word(self) -> int:
        try:
            return self._next_word()
        except StopIteration:
            block = self._bit_generator.random_raw(self._BLOCK).tolist()
            self._next_word = iter(block).__next__
            return self._next_word()

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFF_FFFF

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"bound {n} outside [1, 2**32]")
        if n == 1:
            return 0  # numpy draws nothing for an empty range
        if n == 1 << 32:
            return self._uint32()
        product = self._uint32() * n
        if product & 0xFFFF_FFFF < n:
            threshold = (1 << 32) % n
            while product & 0xFFFF_FFFF < threshold:
                product = self._uint32() * n
        return product >> 32


_DEFAULT_GATE_MIX = (
    (GateType.NAND, 0.28),
    (GateType.NOR, 0.18),
    (GateType.AND, 0.16),
    (GateType.OR, 0.14),
    (GateType.NOT, 0.10),
    (GateType.XOR, 0.08),
    (GateType.XNOR, 0.06),
)


def random_circuit(n_inputs: int,
                   n_gates: int,
                   n_outputs: int,
                   seed: int,
                   name: Optional[str] = None,
                   max_fanout: Optional[int] = None,
                   depth_bias: float = 0.6,
                   window: int = 24,
                   xor_weight: Optional[float] = None,
                   gate_mix: Sequence = _DEFAULT_GATE_MIX) -> Circuit:
    """Seeded random multilevel logic with controlled structure.

    The generator maintains the invariant that every gate is eventually
    consumed: while more nodes are *unused* than the target output count,
    each new gate is forced to consume at least one unused node.  Sampling
    the remaining fanins from a recent-node window (probability
    ``depth_bias``) rather than uniformly produces deep, reconvergent
    multilevel structure resembling mapped random logic.

    Parameters
    ----------
    max_fanout:
        Optional hard bound on every node's fanout (realizes the Fig. 8
        low-fanout synthesis flavor).
    depth_bias:
        Probability of drawing a fanin from the most recent ``window``
        eligible nodes; higher values give deeper circuits.
    xor_weight:
        Override the combined XOR/XNOR share of the gate mix (0 disables
        parity gates; large values emulate the XOR-dominated c499 family).
    """
    if n_inputs < 2 or n_gates < 1 or n_outputs < 1:
        raise ValueError("need >= 2 inputs, >= 1 gate, >= 1 output")
    # The same draws ``np.random.default_rng(seed)`` would make, call for
    # call, without numpy's per-call overhead.
    rng = _Pcg64Replay(seed)
    random, integers = rng.random, rng.integers
    mix = list(gate_mix)
    if xor_weight is not None:
        non_xor = [(t, w) for t, w in mix
                   if t not in (GateType.XOR, GateType.XNOR)]
        total_non_xor = sum(w for _, w in non_xor)
        scale = (1.0 - xor_weight) / total_non_xor
        mix = ([(t, w * scale) for t, w in non_xor]
               + [(GateType.XOR, xor_weight / 2),
                  (GateType.XNOR, xor_weight / 2)])
    types = [t for t, _ in mix]
    weights = np.array([w for _, w in mix], dtype=float)
    weights /= weights.sum()
    # Gate types are drawn the way ``rng.choice(len(types), p=weights)``
    # draws them (one uniform double against the normalised CDF), without
    # its per-call validation: same indices, same RNG stream.
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    cdf_list = cdf.tolist()

    circuit = Circuit(name or f"rand_{n_inputs}x{n_gates}x{n_outputs}_s{seed}")
    nodes: List[str] = [circuit.add_input(f"pi{i}") for i in range(n_inputs)]
    fanout = {n: 0 for n in nodes}
    # Unused nodes in creation order (draws index into the list), with a
    # set beside it for membership tests.
    unused = list(nodes)
    unused_set = set(nodes)

    def eligible(pool: List[str]) -> List[str]:
        if max_fanout is None:
            return pool
        return [n for n in pool if fanout[n] < max_fanout]

    drain_above = max(n_outputs, 1)

    for k in range(n_gates):
        gate_type = types[bisect.bisect_right(cdf_list, random())]
        arity = 1 if gate_type in (GateType.NOT, GateType.BUF) else 2
        chosen: List[str] = []
        # Drain unused nodes while we have more than we can expose as
        # outputs at the end.
        if len(unused) > drain_above:
            pool = eligible(unused)
            if pool:
                chosen.append(pool[integers(len(pool))])
        while len(chosen) < arity:
            pool = eligible(nodes)
            if not pool:
                pool = nodes  # relax the bound rather than fail
            if random() < depth_bias and len(pool) > window:
                candidate = pool[len(pool) - 1 - integers(window)]
            else:
                candidate = pool[integers(len(pool))]
            if candidate in chosen:
                continue
            chosen.append(candidate)
        gate_name = f"g{k}"
        circuit.add_gate(gate_name, gate_type, chosen)
        for fi in chosen:
            fanout[fi] += 1
            if fi in unused_set:
                unused_set.remove(fi)
                unused.remove(fi)
        nodes.append(gate_name)
        fanout[gate_name] = 0
        unused.append(gate_name)
        unused_set.add(gate_name)

    # Outputs: every unused gate (no dead logic), topped up with the
    # deepest used gates if the target is not met.
    sink_gates = [n for n in unused
                  if circuit.node(n).gate_type.is_logic]
    outputs = list(sink_gates)
    if len(outputs) < n_outputs:
        extra = [n for n in reversed(nodes)
                 if circuit.node(n).gate_type.is_logic and n not in outputs]
        outputs.extend(extra[:n_outputs - len(outputs)])
    for o in outputs:
        circuit.set_output(o)
    circuit.validate()
    return circuit


def fanin_network(n_inputs: int,
                  n_stems: int,
                  n_outputs: int,
                  leaves_per_output: int,
                  seed: int,
                  balanced: bool,
                  name: Optional[str] = None) -> Circuit:
    """Multi-output network whose *function* is independent of ``balanced``.

    A shared layer of ``n_stems`` random 2-input gates is built over the
    inputs; each output is then a wide associative operation (alternating
    AND/OR per output) over a seeded choice of stem/input leaves.  With
    ``balanced=False`` the wide op is realized as a skewed chain (deep, many
    logic levels); with ``balanced=True`` as a balanced tree (shallow).
    Same seed => identical leaves => identical Boolean functions and gate
    counts — the controlled version of the paper's Fig. 8 levels-of-logic
    study.
    """
    rng = np.random.default_rng(seed)
    suffix = "bal" if balanced else "chain"
    b = CircuitBuilder(name or f"fanin_{n_inputs}x{n_outputs}_{suffix}")
    pool: List[str] = list(b.input_bus("pi", n_inputs))
    stem_types = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
                  GateType.XOR]
    for _ in range(n_stems):
        t = stem_types[int(rng.integers(len(stem_types)))]
        i = int(rng.integers(len(pool)))
        j = int(rng.integers(len(pool) - 1))
        if j >= i:
            j += 1
        pool.append(b.gate(t, pool[i], pool[j]))

    for out_idx in range(n_outputs):
        op = b.and_ if out_idx % 2 == 0 else b.or_
        chosen = rng.choice(len(pool), size=leaves_per_output, replace=False)
        leaves = [pool[int(c)] for c in chosen]
        if balanced:
            layer = leaves
            while len(layer) > 1:
                nxt = []
                for i in range(0, len(layer) - 1, 2):
                    nxt.append(op(layer[i], layer[i + 1]))
                if len(layer) % 2:
                    nxt.append(layer[-1])
                layer = nxt
            result = layer[0]
        else:
            result = leaves[0]
            for leaf in leaves[1:]:
                result = op(result, leaf)
        b.outputs(**{f"po{out_idx}": result})
    return b.build()


def sec_circuit(data_bits: int = 32, check_bits: int = 8,
                name: Optional[str] = None,
                seed: int = 499) -> Circuit:
    """Single-error-correcting decode circuit (our c499 stand-in).

    Structure (mirrors the real c499's function): ``data_bits`` data inputs
    and ``check_bits`` received check inputs; XOR trees recompute each check
    bit over a seeded parity-check matrix and XOR it with the received one
    to form the syndrome; each data output is the data bit XOR-ed with the
    full AND-decode of its syndrome pattern.  The syndrome wires fan out to
    every decoder — massive reconvergent fanout, the property that makes
    the real c499/c1355 the hardest rows of the paper's Table 2.
    """
    rng = np.random.default_rng(seed)
    b = CircuitBuilder(name or "sec")
    data = b.input_bus("d", data_bits)
    checks = b.input_bus("c", check_bits)
    enable = b.input("en")  # correction enable (c499 has 41 inputs)
    # Assign each data bit a distinct nonzero syndrome pattern with >= 2
    # set bits (so patterns differ from single-check-error syndromes).
    patterns: List[int] = []
    candidates = [p for p in range(1, 1 << check_bits)
                  if bin(p).count("1") >= 2]
    order = rng.permutation(len(candidates))
    for idx in order:
        patterns.append(candidates[idx])
        if len(patterns) == data_bits:
            break
    if len(patterns) < data_bits:
        raise ValueError("check_bits too small for data_bits")

    # Recomputed check bits: XOR tree over the data bits in each check.
    syndrome: List[str] = []
    for j in range(check_bits):
        members = [data[i] for i in range(data_bits)
                   if (patterns[i] >> j) & 1]
        acc = members[0]
        for m in members[1:]:
            acc = b.xor(acc, m)
        syndrome.append(b.xor(acc, checks[j]))
    syndrome_n = [b.not_(s) for s in syndrome]

    # Correct each data bit when the syndrome matches its pattern.
    for i in range(data_bits):
        lits = [syndrome[j] if (patterns[i] >> j) & 1 else syndrome_n[j]
                for j in range(check_bits)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = b.and_(acc, lit)
        gated = b.and_(acc, enable)
        corrected = b.xor(data[i], gated)
        b.outputs(**{f"q{i}": corrected})
    return b.build()


# ---------------------------------------------------------------------------
# Large-netlist presets (the docs/scaling.md substrate)
# ---------------------------------------------------------------------------

def _attach_probe(circuit: Circuit, label: str, width: int) -> None:
    """Graft a balanced ``width``-input tree output named ``label``.

    The tree reduces the circuit's first ``width`` primary inputs
    pairwise (NAND with an XOR every third gate, so signal probabilities
    are non-trivial) and exposes the root as an extra primary output.
    Its cone is exactly ``width`` inputs and ``width - 1`` gates
    regardless of the surrounding netlist — a guaranteed-small cone that
    restricted analysis and the SAT tier can target deterministically.
    """
    layer = list(circuit.inputs[:width])
    counter = 0
    while len(layer) > 1:
        nxt: List[str] = []
        for j in range(0, len(layer) - 1, 2):
            counter += 1
            gname = label if len(layer) == 2 else f"{label}_n{counter}"
            gate_type = GateType.XOR if counter % 3 == 0 else GateType.NAND
            circuit.add_gate(gname, gate_type, [layer[j], layer[j + 1]])
            nxt.append(gname)
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    circuit.set_output(layer[0])


def large_random_netlist(n_gates: int, seed: int,
                         name: Optional[str] = None) -> Circuit:
    """Deterministic large random-logic preset with probe outputs.

    Inputs and outputs scale with the gate count (``max(32, n//50)``
    inputs, ``max(8, n//500)`` outputs), matching mapped-random-logic
    proportions.  Two probe outputs are grafted on top of the random
    core (see :func:`_attach_probe`):

    * ``probe_small`` — an 8-input cone, resolved exactly by every tier;
    * ``probe_mid`` — a 20-input cone, sized to exercise the XOR-hash
      approximate counting path of the ``sat`` weight tier.
    """
    circuit = random_circuit(max(32, n_gates // 50), n_gates,
                             max(8, n_gates // 500), seed, name=name)
    _attach_probe(circuit, "probe_small", 8)
    _attach_probe(circuit, "probe_mid", 20)
    circuit.validate()
    return circuit


def rand10k(name: Optional[str] = None) -> Circuit:
    """10k-gate large-netlist preset (seeded, deterministic)."""
    return large_random_netlist(10_000, seed=101, name=name or "rand10k")


def rand50k(name: Optional[str] = None) -> Circuit:
    """50k-gate large-netlist preset (seeded, deterministic)."""
    return large_random_netlist(50_000, seed=505, name=name or "rand50k")


def rand100k(name: Optional[str] = None) -> Circuit:
    """100k-gate large-netlist preset (seeded, deterministic)."""
    return large_random_netlist(100_000, seed=1009, name=name or "rand100k")
