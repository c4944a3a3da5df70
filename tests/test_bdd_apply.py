"""The dedicated apply kernels against the ``ite`` formulations they replace.

:class:`IteManager` keeps the generic operations as an oracle: and/or/xor
and complement are plain ``_ite`` calls, and a 2-input gate's literal
conjunctions are four separate ``_and`` chains.  The production manager
must allocate exactly the same node set (ids may be numbered in another
order), give byte-equal weight vectors, and hit a node limit in the same
stage.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager, BddSizeLimitError, build_node_bdds
from repro.circuits import get_benchmark
from repro.probability import weights as weights_mod
from repro.probability.weights import (
    _literal_conjunctions,
    bdd_weight_vectors,
    compute_weights,
)
from tests.test_properties import random_dag_circuit


class IteManager(BddManager):
    """Every Boolean operation through ``_ite``, as before the kernels."""

    def _not(self, f):
        return self._ite(f, 0, 1)

    def _and(self, f, g):
        return self._ite(f, g, 0)

    def _or(self, f, g):
        return self._ite(f, 1, g)

    def _xor(self, f, g):
        return self._ite(f, self._not(g), g)

    def literal_products(self, a, b):
        out = []
        for v in range(4):
            acc = 1
            for t, f in enumerate((a, b)):
                acc = self._and(acc, f if (v >> t) & 1 else self._not(f))
            out.append(acc)
        return tuple(out)


def _assert_same_nodes(oracle, manager):
    """Same node count and the same canonical ``(var, lo, hi)`` set."""
    assert manager.num_nodes == oracle.num_nodes
    index = {(manager._var[j], manager._lo[j], manager._hi[j]): j
             for j in range(2, manager.num_nodes)}
    to_manager = [0, 1]
    for i in range(2, oracle.num_nodes):  # children precede parents
        key = (oracle._var[i], to_manager[oracle._lo[i]],
               to_manager[oracle._hi[i]])
        assert key in index, f"oracle node {i} {key} was never allocated"
        to_manager.append(index[key])


def _skewed(circuit):
    return {pi: 0.05 + 0.9 * ((7 * i) % 13) / 12
            for i, pi in enumerate(circuit.inputs)}


def _check_circuit(circuit, input_probs):
    oracle, manager = IteManager(), BddManager()
    oracle_bdds = build_node_bdds(circuit, oracle)
    bdds = build_node_bdds(circuit, manager)
    _assert_same_nodes(oracle, manager)
    build_size = manager.num_nodes
    _literal_conjunctions(circuit, oracle_bdds)
    _literal_conjunctions(circuit, bdds)
    _assert_same_nodes(oracle, manager)
    expected = bdd_weight_vectors(circuit, input_probs=input_probs,
                                  manager=IteManager())
    got = bdd_weight_vectors(circuit, input_probs=input_probs,
                             manager=BddManager())
    assert got.signal_prob == expected.signal_prob
    assert list(got.weights) == list(expected.weights)
    for gate, w in expected.weights.items():
        assert np.array_equal(got.weights[gate], w), gate
    return build_size, manager.num_nodes


def _stage_at(cls, circuit, limit):
    manager = cls(node_limit=limit)
    with pytest.raises(BddSizeLimitError) as info:
        bdd_weight_vectors(circuit, manager=manager)
    assert manager.num_nodes == limit
    return info.value.stage


def _assert_same_stages(circuit, limits):
    for limit in limits:
        assert (_stage_at(BddManager, circuit, limit)
                == _stage_at(IteManager, circuit, limit)), limit


@settings(max_examples=80, deadline=None)
@given(random_dag_circuit(max_inputs=6, max_gates=16), st.booleans(),
       st.data())
def test_random_circuits_match_the_ite_oracle(circuit, skewed, data):
    probs = _skewed(circuit) if skewed else None
    build_size, total = _check_circuit(circuit, probs)
    if total > build_size:
        limits = data.draw(st.lists(st.integers(build_size, total - 1),
                                    min_size=1, max_size=3))
        _assert_same_stages(circuit, limits)


@pytest.mark.parametrize("name", ["c432", "b9_low_fanout",
                                  "b9_high_fanout"])
@pytest.mark.parametrize("skewed", [False, True])
def test_catalog_circuits_match_the_ite_oracle(name, skewed):
    circuit = get_benchmark(name)
    build_size, total = _check_circuit(
        circuit, _skewed(circuit) if skewed else None)
    if not skewed:  # the node set does not depend on input_probs
        span = total - build_size
        _assert_same_stages(circuit, [build_size // 2, build_size,
                                      build_size + span // 3, total - 1])


def test_operators_match_the_ite_oracle():
    oracle, manager = IteManager(), BddManager()
    for m in (oracle, manager):
        x = [m.new_var() for _ in range(5)]
        f = (x[0] & x[1]) | (x[2] ^ ~x[3])
        g = ~(x[1] | x[4]) ^ (x[0] & ~x[2])
        for h in (f & g, f | g, f ^ g, ~(f ^ g), f & ~f, f ^ f, g | ~g):
            h.exists([1, 3])
    _assert_same_nodes(oracle, manager)


def test_abandoned_manager_is_freed_without_gc(monkeypatch):
    refs = []

    class Tracked(BddManager):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    sampled = weights_mod.sampled_weight_vectors
    alive_at_sampling = []

    def spy(*args, **kwargs):
        alive_at_sampling.append([r() is not None for r in refs])
        return sampled(*args, **kwargs)

    monkeypatch.setattr(weights_mod, "BddManager", Tracked)
    monkeypatch.setattr(weights_mod, "sampled_weight_vectors", spy)
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = compute_weights(get_benchmark("c880"), n_patterns=1 << 8)
        assert data.source == "sampled"
        assert len(refs) == 1 and refs[0]() is None
        assert alive_at_sampling == [[False]]
    finally:
        if enabled:
            gc.enable()
