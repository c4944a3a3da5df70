"""One-pass probability table over the BDD unique table, and its users.

``BddManager.probabilities`` must reproduce the per-root walk of
``Bdd.probability`` bit for bit, and every multi-root loop rebuilt on it
(weight vectors, observabilities, the closed-form any-output loop) must
return exactly what the per-root loops it replaced returned.  The old
loops are kept here as oracles.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bdd import Bdd, BddManager, build_node_bdds
from repro.bdd.ops import _gate_bdd
from repro.circuits import get_benchmark, list_benchmarks
from repro.obs import metrics as obs_metrics
from repro.probability.weights import (
    WeightData,
    _literal_conjunctions,
    bdd_weight_vectors,
    compute_weights,
)
from repro.reliability.closed_form import _any_output_from_bdds
from repro.reliability.observability import bdd_observabilities
from tests.test_properties import random_dag_circuit


# -- oracles: the per-root loops the one-pass table replaced -------------

def _per_root_weights(circuit, input_probs=None):
    bdds = build_node_bdds(circuit)
    probs = [0.5] * bdds.manager.num_vars
    for name, p in (input_probs or {}).items():
        probs[bdds.var_index[name]] = p
    signal_prob = {name: bdds[name].probability(probs)
                   for name in circuit.topological_order()}
    weights = {}
    for gate in circuit.topological_gates():
        fanins = circuit.fanins(gate)
        k = len(fanins)
        vec = np.zeros(1 << k)
        for v in range(1 << k):
            acc = None
            for t, fi in enumerate(fanins):
                lit = bdds[fi] if (v >> t) & 1 else ~bdds[fi]
                acc = lit if acc is None else acc & lit
            vec[v] = acc.probability(probs) if acc is not None else 1.0
        weights[gate] = vec
    return WeightData(weights=weights, signal_prob=signal_prob, source="bdd")


def _per_root_observabilities(circuit, output, bdds):
    cone_nodes = circuit.transitive_fanin([output])
    cone_set = set(cone_nodes)
    fanout_sets = {}
    for name in reversed(cone_nodes):
        downstream = {name}
        for consumer in circuit.fanouts(name):
            if consumer in cone_set:
                downstream |= fanout_sets.get(consumer, {consumer})
        fanout_sets[name] = downstream
    out_bdd = bdds[output]
    result = {}
    for gate in [n for n in cone_nodes
                 if circuit.node(n).gate_type.is_logic]:
        rebuilt = {gate: ~bdds[gate]}
        for name in cone_nodes:
            if name == gate or name not in fanout_sets[gate]:
                continue
            node = circuit.node(name)
            fanin_bdds = [rebuilt.get(f, bdds[f]) for f in node.fanins]
            rebuilt[name] = _gate_bdd(bdds.manager, node.gate_type,
                                      fanin_bdds)
        result[gate] = (out_bdd ^ rebuilt.get(output, out_bdd)).probability()
    return result


def _per_root_any_output(circuit, bdds):
    cone_nodes = circuit.transitive_fanin(circuit.outputs)
    cone_set = set(cone_nodes)
    result = {}
    for gate in circuit.topological_gates():
        if gate not in cone_set:
            result[gate] = 0.0
            continue
        rebuilt = {gate: ~bdds[gate]}
        for name in cone_nodes:
            node = circuit.node(name)
            if name == gate or not node.gate_type.is_logic:
                continue
            if not any(f in rebuilt for f in node.fanins):
                continue
            fanins = [rebuilt.get(f, bdds[f]) for f in node.fanins]
            rebuilt[name] = _gate_bdd(bdds.manager, node.gate_type, fanins)
        acc = bdds.manager.false
        for out in circuit.outputs:
            acc = acc | (bdds[out] ^ rebuilt.get(out, bdds[out]))
        result[gate] = acc.probability()
    return result


def _assert_identical(a, b):
    assert a.source == b.source
    assert list(a.weights) == list(b.weights)
    for gate in a.weights:
        assert a.weights[gate].dtype == b.weights[gate].dtype
        assert np.array_equal(a.weights[gate], b.weights[gate])
    assert list(a.signal_prob) == list(b.signal_prob)
    for node in a.signal_prob:
        assert type(a.signal_prob[node]) is float
        assert a.signal_prob[node] == b.signal_prob[node]


# -- BddManager.probabilities --------------------------------------------

_PROB = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(random_dag_circuit(max_inputs=6, max_gates=14),
       st.lists(_PROB, min_size=6, max_size=6),
       st.lists(_PROB, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_table_equals_per_root_walk(circuit, probs, other):
    bdds = build_node_bdds(circuit)
    mgr = bdds.manager
    n = mgr.num_vars
    p, q = probs[:n], other[:n]
    nodes = {name: bdds[name] for name in circuit.topological_order()}
    early = mgr.probabilities(p)
    for f in nodes.values():
        assert early[f.node] == f.probability(p)
    # Conjunctions grow the table; the second call extends the first.
    roots = _literal_conjunctions(circuit, bdds)
    functions = list(nodes.values()) + [
        Bdd(mgr, int(i)) for ids in roots.values() for i in ids]
    for dist in (p, q, p):
        table = mgr.probabilities(dist)
        assert len(table) == mgr.num_nodes
        for f in functions:
            assert table[f.node] == f.probability(dist)


def test_table_is_read_only_and_checks_length():
    mgr = BddManager()
    a, b = mgr.new_var(), mgr.new_var()
    f = a & ~b
    table = mgr.probabilities([0.25, 0.75])
    assert table[f.node] == f.probability([0.25, 0.75])
    assert (table[0], table[1]) == (0.0, 1.0)
    with pytest.raises(ValueError):
        table[0] = 1.0
    with pytest.raises(ValueError):
        mgr.probabilities([0.5])


def test_clear_caches_drops_the_memo():
    mgr = BddManager()
    a, b = mgr.new_var(), mgr.new_var()
    f = a ^ b
    first = mgr.probabilities([0.3, 0.6])
    assert mgr.probabilities([0.3, 0.6]) is first
    mgr.clear_caches()
    again = mgr.probabilities([0.3, 0.6])
    assert again is not first
    assert again[f.node] == first[f.node]


# -- weight vectors ------------------------------------------------------

@pytest.mark.parametrize("name", ["c17", "fig2", "x2", "cu", "c432",
                                  "b9_low_fanout", "b9_high_fanout"])
def test_weights_match_per_root_loop(name):
    circuit = get_benchmark(name)
    _assert_identical(bdd_weight_vectors(circuit), _per_root_weights(circuit))


@pytest.mark.parametrize("name", ["x2", "c432", "b9_low_fanout"])
def test_weights_match_per_root_loop_nonuniform(name):
    circuit = get_benchmark(name)
    probs = {pi: 0.05 + 0.9 * ((7 * i) % 13) / 12
             for i, pi in enumerate(circuit.inputs)}
    _assert_identical(bdd_weight_vectors(circuit, input_probs=probs),
                      _per_root_weights(circuit, probs))


#: ``compute_weights(c).source`` per catalog circuit, recorded before the
#: one-pass table: the auto tier's bdd-vs-sampled choice must not move.
AUTO_SOURCES = {
    "b9": "sampled", "b9_high_fanout": "bdd", "b9_low_fanout": "bdd",
    "c1355": "sampled", "c17": "exhaustive", "c1908": "sampled",
    "c2670": "sampled", "c3540": "sampled", "c432": "bdd",
    "c499": "sampled", "c6288": "sampled", "c880": "sampled",
    "cu": "exhaustive", "fig1a": "exhaustive", "fig2": "exhaustive",
    "frg2": "sampled", "i10": "sampled", "x2": "exhaustive",
}


def test_auto_source_table_covers_the_catalog():
    assert sorted(AUTO_SOURCES) == sorted(list_benchmarks())


@pytest.mark.parametrize("name", sorted(AUTO_SOURCES))
def test_auto_tier_choice_unchanged(name):
    data = compute_weights(get_benchmark(name), n_patterns=1 << 8)
    assert data.source == AUTO_SOURCES[name]


def test_over_limit_fails_before_any_probability(monkeypatch):
    def boom(self, var_probs):
        raise AssertionError("probabilities() ran on an abandoned attempt")

    monkeypatch.setattr(BddManager, "probabilities", boom)
    data = compute_weights(get_benchmark("c499"), n_patterns=1 << 8)
    assert data.source == "sampled"


# -- fallback visibility -------------------------------------------------

@pytest.fixture
def metrics_on():
    obs.disable()
    obs.reset()
    obs.enable()
    yield obs_metrics.get_registry()
    obs.disable()
    obs.reset()


@pytest.mark.parametrize("limit, stage", [(100, "build"), (3000, "conjoin")])
def test_fallback_is_counted_and_logged(metrics_on, caplog, limit, stage):
    circuit = get_benchmark("b9_low_fanout")  # 1410 node-BDD nodes, 6225 all
    with caplog.at_level(logging.INFO, logger="repro.probability.weights"):
        data = compute_weights(circuit, n_patterns=1 << 8,
                               bdd_node_limit=limit)
    assert data.source == "sampled"
    labels = {"from": "bdd", "to": "sampled", "reason": "node_limit",
              "stage": stage}
    assert metrics_on.value("weights.fallback", **labels) == 1
    assert metrics_on.value("bdd.node_limit") == limit
    assert metrics_on.value("bdd.nodes_allocated") == limit
    lines = [r.getMessage() for r in caplog.records
             if r.name == "repro.probability.weights"]
    assert len(lines) == 1 and stage in lines[0] and str(limit) in lines[0]
    spans = {s["name"] for s in obs.get_tracer().as_rows()}
    assert "weights.bdd.build" in spans
    assert ("weights.bdd.conjoin" in spans) == (stage == "conjoin")
    assert "weights.bdd.probability" not in spans


def test_auto_build_runs_inside_weights_bdd(metrics_on):
    assert compute_weights(get_benchmark("b9_low_fanout")).source == "bdd"
    rows = obs.get_tracer().as_rows()
    assert [r["name"] for r in rows if r["name"] == "weights.bdd"] == \
        ["weights.bdd"]
    children = [r["name"] for r in rows if r["parent"] == "weights.bdd"]
    assert children == ["weights.bdd.build", "weights.bdd.conjoin",
                        "weights.bdd.probability"]
    with pytest.raises(KeyError):
        metrics_on.value("weights.fallback", reason="node_limit",
                         stage="build", **{"from": "bdd", "to": "sampled"})


# -- observabilities and the closed-form any-output loop -----------------

_OBS_CASES = [("c17", None), ("x2", None), ("cu", None), ("c432", 3)]


@pytest.mark.parametrize("name, n_outputs", _OBS_CASES)
def test_observabilities_match_per_root_walks(name, n_outputs):
    circuit = get_benchmark(name)
    bdds = build_node_bdds(circuit)
    for out in circuit.outputs[:n_outputs]:
        got = bdd_observabilities(circuit, output=out, bdds=bdds)
        want = _per_root_observabilities(circuit, out, bdds)
        assert got == want
        assert all(type(v) is float for v in got.values())


@pytest.mark.parametrize("name", ["c17", "x2", "cu", "c432"])
def test_any_output_loop_matches_per_root_walks(name):
    circuit = get_benchmark(name)
    bdds = build_node_bdds(circuit)
    got = _any_output_from_bdds(circuit, bdds)
    assert got == _per_root_any_output(circuit, bdds)
    assert all(type(v) is float for v in got.values())
