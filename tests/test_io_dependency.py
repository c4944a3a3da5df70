"""Dependency ordering shared by the .bench / BLIF / Verilog readers."""

import hashlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import get_benchmark
from repro.io import (
    BenchFormatError,
    VerilogFormatError,
    dumps_bench,
    loads_bench,
    loads_verilog,
)
from repro.io.dependency import (
    DependencyCycle,
    UndefinedReference,
    dependency_order,
)


def _pass_loop(order, fanins, sources):
    """The readers' former emission loop: repeated passes over the
    pending list, each emitting (in file order) every definition whose
    fanins are already emitted.  Returns (emitted, error)."""
    emitted = list()
    done = set(sources)
    pending = list(order)
    while pending:
        progressed = False
        still = []
        for g in pending:
            if all(f in done for f in fanins[g]):
                emitted.append(g)
                done.add(g)
                progressed = True
            else:
                missing = [f for f in fanins[g]
                           if f not in done and f not in fanins]
                if missing:
                    return emitted, ("undefined", g, missing[0])
                still.append(g)
        if not progressed:
            return emitted, ("cycle", still)
        pending = still
    return emitted, None


def _linear(order, fanins, sources):
    emitted = []
    try:
        for g in dependency_order(order, fanins, sources):
            emitted.append(g)
    except UndefinedReference as exc:
        return emitted, ("undefined", exc.target, exc.ref)
    except DependencyCycle as exc:
        return emitted, ("cycle", exc.names)
    return emitted, None


@st.composite
def _netlists(draw):
    """Definitions g0..gn-1 reading inputs, each other (forward or
    backward, so cycles occur) and sometimes undefined names, listed in
    a shuffled file order."""
    n = draw(st.integers(1, 14))
    names = [f"g{i}" for i in range(n)]
    refs = st.sampled_from(names + ["i0", "i1", "i2"]
                           + draw(st.sampled_from([[], ["nowhere"]])))
    fanins = {g: draw(st.lists(refs, max_size=3)) for g in names}
    order = draw(st.permutations(names))
    return order, fanins


@settings(max_examples=400, deadline=None)
@given(_netlists())
def test_matches_the_pass_loop(netlist):
    order, fanins = netlist
    sources = {"i0", "i1", "i2"}
    assert _linear(order, fanins, sources) == _pass_loop(order, fanins,
                                                         sources)


def _reversed_bench(circuit):
    lines = dumps_bench(circuit).splitlines()
    head = [ln for ln in lines
            if not ln or ln.startswith(("#", "INPUT", "OUTPUT"))]
    body = [ln for ln in lines
            if ln and not ln.startswith(("#", "INPUT", "OUTPUT"))]
    return "\n".join(head + body[::-1]) + "\n"


def test_reversed_rand10k_parses_fast_in_the_pass_order():
    text = _reversed_bench(get_benchmark("rand10k"))
    t0 = time.perf_counter()
    circuit = loads_bench(text, name="rand10k")
    elapsed = time.perf_counter() - t0
    # The node order the former pass-per-depth loop produced.
    digest = hashlib.sha256(
        "\n".join(circuit.topological_order()).encode()).hexdigest()
    assert digest == ("2878d8ba386fa7f76143b03a58f2a91f"
                      "a20f3a4b99e73d191fc9153f4227ed5f")
    assert elapsed < 1.0


def test_reader_messages():
    with pytest.raises(BenchFormatError,
                       match="gate 'b' references undefined node 'zz'"):
        loads_bench("INPUT(a)\nOUTPUT(b)\nb = AND(a, zz)\n")
    with pytest.raises(BenchFormatError,
                       match="combinational cycle involving: x, y"):
        loads_bench("INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = OR(a, x)\n")
    with pytest.raises(VerilogFormatError, match="defined twice"):
        loads_verilog("module m(a, y);\ninput a;\noutput y;\n"
                      "assign y = ~a;\nassign y = a;\nendmodule\n")
