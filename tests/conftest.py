"""Shared fixtures: small reference circuits used across the test suite."""

import pytest

from repro.circuit import Circuit, CircuitBuilder, GateType
from repro.obs import logging as obs_logging


@pytest.fixture(autouse=True)
def _detach_repro_logging():
    """Undo any ``-v`` logging set-up a test made, so a later test's serve
    thread never logs through it."""
    yield
    obs_logging.reset()


@pytest.fixture
def full_adder_circuit() -> Circuit:
    """1-bit full adder: 5 gates, 2 outputs, mild reconvergence."""
    b = CircuitBuilder("fa")
    a, bb, cin = b.inputs("a", "b", "cin")
    t = b.xor(a, bb, name="t")
    s = b.xor(t, cin, name="s")
    c1 = b.and_(a, bb, name="c1")
    c2 = b.and_(t, cin, name="c2")
    b.or_(c1, c2, name="cout")
    b.outputs("s", "cout")
    return b.build()


@pytest.fixture
def tree_circuit() -> Circuit:
    """Fanout-free circuit: single-pass analysis must be exact on it."""
    b = CircuitBuilder("tree")
    x = b.inputs(*[f"x{i}" for i in range(6)])
    a1 = b.and_(x[0], x[1])
    o1 = b.or_(x[2], x[3])
    n1 = b.nand(x[4], x[5])
    top = b.nor(b.xor(a1, o1), n1, name="top")
    b.outputs(top)
    return b.build()


@pytest.fixture
def reconvergent_circuit() -> Circuit:
    """Small circuit with a fanout stem reconverging two levels later."""
    b = CircuitBuilder("reconv")
    i0, i1, i2, i3 = b.inputs("i0", "i1", "i2", "i3")
    g1 = b.and_(i0, i1, name="g1")
    g2 = b.or_(g1, i2, name="g2")
    g4 = b.and_(g2, i3, name="g4")
    g5 = b.nand(g2, i0, name="g5")
    b.xor(g4, g5, name="g6")
    b.outputs("g6")
    return b.build()


@pytest.fixture
def two_output_circuit() -> Circuit:
    """Two outputs sharing logic (for consolidation tests)."""
    b = CircuitBuilder("duo")
    a, bb, c = b.inputs("a", "b", "c")
    shared = b.xor(a, bb, name="shared")
    b.and_(shared, c, name="y1")
    b.or_(shared, c, name="y2")
    b.outputs("y1", "y2")
    return b.build()


def all_assignments(circuit: Circuit):
    """Iterate every primary-input assignment of a (small) circuit."""
    inputs = circuit.inputs
    for k in range(1 << len(inputs)):
        yield {name: (k >> i) & 1 for i, name in enumerate(inputs)}
