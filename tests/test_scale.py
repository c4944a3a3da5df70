"""The large-netlist substrate (repro.scale + the ``outputs=`` path).

Three layers under test:

* :class:`~repro.scale.lazy_weights.LazyWeightData` — per-cone
  materialization, the bit-identity contract against full-circuit
  ``compute_weights``, and the ``conewt-`` disk cache;
* the restricted analyzer — ``SinglePassAnalyzer(..., outputs=...)``
  answers bit-identical to a full run, through the facade and the
  engine envelope path (coalescing, guards);
* the deterministic large presets (rand10k/rand50k) and their CLI
  surface (``repro bench --large``, ``repro analyze --outputs``).
"""

import json
import os

import numpy as np
import pytest

import repro
from repro.circuit import CircuitError
from repro.circuits import (
    get_benchmark,
    large_catalog,
    large_random_netlist,
    rand10k,
)
from repro.cli import main
from repro.engine import AnalysisEngine
from repro.probability.weights import compute_weights
from repro.reliability.single_pass import SinglePassAnalyzer
from repro.scale import LazyWeightData, cone_weight_vectors


def _assert_same_weights(a, b, nodes=None):
    gates = nodes if nodes is not None else list(a.weights)
    for gate in gates:
        assert np.array_equal(a.weights[gate], b.weights[gate]), gate
    probs = nodes if nodes is not None else list(a.signal_prob)
    for node in probs:
        if node in a.signal_prob:
            assert a.signal_prob[node] == b.signal_prob[node], node


class TestSubcircuit:
    def test_union_cone_and_output_order(self):
        circuit = get_benchmark("c432")
        outs = [circuit.outputs[2], circuit.outputs[0]]
        sub = circuit.subcircuit(outs)
        # Output order follows the parent circuit, not the argument.
        assert list(sub.outputs) == [circuit.outputs[0], circuit.outputs[2]]
        cone_nodes = set(circuit.transitive_fanin(outs))
        assert set(sub.topological_order()) == cone_nodes
        # Relative input order is preserved (the sampled-tier anchor).
        kept = [i for i in circuit.inputs if i in cone_nodes]
        assert list(sub.inputs) == kept
        sub.validate()

    def test_internal_node_as_output(self):
        circuit = get_benchmark("c17")
        gate = circuit.gates[0]
        sub = circuit.subcircuit([gate])
        assert gate in sub.outputs

    def test_empty_selection_rejected(self):
        with pytest.raises(CircuitError):
            get_benchmark("c17").subcircuit([])


class TestLazyWeightData:
    def test_construction_materializes_nothing(self):
        circuit = get_benchmark("c880")
        lazy = LazyWeightData(circuit, method="sampled", n_patterns=1 << 8)
        assert lazy.cones_materialized == 0
        assert lazy.materialized_gates == 0
        assert lazy.source == "lazy-sampled"

    def test_touch_materializes_one_cone_only(self):
        circuit = get_benchmark("c880")
        lazy = LazyWeightData(circuit, method="sampled", n_patterns=1 << 8)
        out = circuit.outputs[0]
        cone_size = len(circuit.cone(out).gates)
        _ = lazy.signal_prob[out]
        assert lazy.cones_materialized == 1
        assert 0 < lazy.materialized_gates <= cone_size
        assert lazy.materialized_gates < len(circuit.gates)
        # A second touch inside the same cone is a dict hit.
        _ = lazy.signal_prob[out]
        assert lazy.cones_materialized == 1

    def test_unknown_key_raises(self):
        lazy = LazyWeightData(get_benchmark("c17"))
        with pytest.raises(KeyError):
            lazy.weights["no_such_gate"]

    @pytest.mark.parametrize("method,kwargs", [
        ("exhaustive", {}),
        ("sampled", {"n_patterns": 1 << 10, "seed": 5}),
        ("sat", {"seed": 2}),
    ])
    def test_bit_identity_against_full_run(self, method, kwargs):
        circuit = get_benchmark("c17" if method != "sampled" else "c499")
        full = compute_weights(circuit, method=method, **kwargs)
        lazy = LazyWeightData(circuit, method=method, **kwargs)
        for gate in circuit.topological_gates():
            assert np.array_equal(lazy.weights[gate], full.weights[gate])
        for node in circuit.topological_order():
            assert lazy.signal_prob[node] == full.signal_prob[node]

    def test_sampled_nonuniform_bit_identity(self):
        circuit = get_benchmark("c17")
        probs = {circuit.inputs[0]: 0.2, circuit.inputs[1]: 0.9}
        full = compute_weights(circuit, method="sampled",
                               n_patterns=1 << 10, input_probs=probs)
        lazy = LazyWeightData(circuit, method="sampled",
                              n_patterns=1 << 10, input_probs=probs)
        _assert_same_weights(full, lazy.restrict(circuit.outputs))

    def test_restrict_returns_plain_snapshot(self):
        circuit = get_benchmark("c432")
        lazy = LazyWeightData(circuit, method="sampled", n_patterns=1 << 8)
        out = circuit.outputs[0]
        snap = lazy.restrict([out])
        cone = circuit.subcircuit([out])
        assert set(snap.weights) == set(cone.topological_gates())
        assert set(snap.signal_prob) == set(cone.topological_order())
        assert snap.source == "sampled"
        full = compute_weights(circuit, method="sampled",
                               n_patterns=1 << 8)
        _assert_same_weights(snap, full, nodes=list(snap.weights))

    def test_auto_resolves_against_full_circuit(self):
        # c499 has 41 inputs: full-circuit auto lands on sampled, and the
        # lazy path must follow even for a tiny (say 5-input) cone.
        circuit = get_benchmark("c499")
        lazy = LazyWeightData(circuit, method="auto", n_patterns=1 << 8)
        assert lazy.method == "sampled"
        small = get_benchmark("c17")
        assert LazyWeightData(small, method="auto").method == "exhaustive"


class TestConeCache:
    def _lazy(self, cache_dir):
        circuit = get_benchmark("c432")
        return circuit, LazyWeightData(circuit, method="sampled",
                                       n_patterns=1 << 8,
                                       cache_dir=str(cache_dir))

    def _entries(self, cache_dir):
        return sorted(p for p in os.listdir(cache_dir)
                      if p.startswith("conewt-"))

    def test_round_trip_and_namespace(self, tmp_path):
        circuit, lazy = self._lazy(tmp_path)
        out = circuit.outputs[0]
        snap = lazy.restrict([out])
        entries = self._entries(tmp_path)
        assert len(entries) == 1  # one union cone, one entry
        # Second store under the same key: served from cache, same data.
        circuit2, lazy2 = self._lazy(tmp_path)
        snap2 = lazy2.restrict([out])
        assert self._entries(tmp_path) == entries
        _assert_same_weights(snap, snap2)
        # The cone namespace never shadows full-circuit entries.
        full = compute_weights(circuit, method="sampled",
                               n_patterns=1 << 8, cache_dir=str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert any(n.startswith("weights-") for n in names)
        assert any(n.startswith("conewt-") for n in names)
        _assert_same_weights(snap, full, nodes=list(snap.weights))

    def test_corrupt_cone_entry_is_a_miss(self, tmp_path):
        circuit, lazy = self._lazy(tmp_path)
        out = circuit.outputs[0]
        reference = lazy.restrict([out])
        (entry,) = self._entries(tmp_path)
        with open(tmp_path / entry, "wb") as fh:
            fh.write(b"garbage, not an npz archive")
        _, lazy2 = self._lazy(tmp_path)
        again = lazy2.restrict([out])
        _assert_same_weights(reference, again)
        # The rewrite healed the entry.
        _, lazy3 = self._lazy(tmp_path)
        assert self._entries(tmp_path) == [entry]
        _assert_same_weights(reference, lazy3.restrict([out]))

    def test_different_selections_get_distinct_entries(self, tmp_path):
        circuit, lazy = self._lazy(tmp_path)
        lazy.restrict([circuit.outputs[0]])
        lazy.restrict([circuit.outputs[0], circuit.outputs[1]])
        assert len(self._entries(tmp_path)) == 2


class TestRestrictedAnalyzer:
    @pytest.mark.parametrize("correlation", [True, False])
    @pytest.mark.parametrize("name", ["c17", "c499", "c880"])
    def test_bit_identical_to_full_run(self, name, correlation):
        circuit = get_benchmark(name)
        sel = [circuit.outputs[-1], circuit.outputs[0]]
        full = SinglePassAnalyzer(
            circuit, weight_method="sampled", n_patterns=1 << 10,
            use_correlation=correlation).run(0.05)
        part = SinglePassAnalyzer(
            circuit, weight_method="sampled", n_patterns=1 << 10,
            use_correlation=correlation, outputs=sel).run(0.05)
        assert sorted(part.per_output) == sorted(sel)
        for out in sel:
            assert part.per_output[out] == full.per_output[out]

    def test_selection_validation(self):
        circuit = get_benchmark("c17")
        with pytest.raises(ValueError, match="not primary outputs"):
            SinglePassAnalyzer(circuit, outputs=["nope"])
        with pytest.raises(ValueError, match="at least one"):
            SinglePassAnalyzer(circuit, outputs=[])

    def test_duplicate_selection_deduped(self):
        circuit = get_benchmark("c17")
        out = circuit.outputs[0]
        analyzer = SinglePassAnalyzer(circuit, outputs=[out, out])
        assert analyzer.outputs_restriction == (out,)

    def test_reuses_lazy_weight_store(self):
        circuit = get_benchmark("c880")
        lazy = LazyWeightData(circuit, method="sampled", n_patterns=1 << 8)
        out = circuit.outputs[0]
        analyzer = SinglePassAnalyzer(circuit, weights=lazy,
                                      weight_method="sampled",
                                      n_patterns=1 << 8, outputs=[out])
        assert lazy.cones_materialized == 1
        assert analyzer.circuit.outputs == (out,) \
            or list(analyzer.circuit.outputs) == [out]


class TestFacadeAndEngine:
    def test_facade_outputs_matches_full(self):
        circuit = get_benchmark("c432")
        sel = [circuit.outputs[0]]
        full = repro.analyze(circuit, 0.02, n_patterns=1 << 10,
                             weights="sampled")
        part = repro.analyze(circuit, 0.02, n_patterns=1 << 10,
                             weights="sampled", outputs=sel)
        assert list(part.per_output) == sel
        assert part.per_output[sel[0]] == full.per_output[sel[0]]

    def test_envelope_carries_outputs(self):
        with AnalysisEngine(max_sessions=4) as engine:
            env = engine.submit({"op": "analyze", "circuit": "c17",
                                 "eps": 0.05, "outputs": ["22"]}).to_dict()
            assert env["ok"], env.get("error")
            assert env["outputs"] == ["22"]
            point = env["result"]["points"][0]
            assert list(point["per_output"]) == ["22"]
            # Full-circuit traffic keeps outputs off the wire entirely.
            env_full = engine.submit({"op": "analyze", "circuit": "c17",
                                      "eps": 0.05}).to_dict()
            assert "outputs" not in env_full

    def test_restricted_and_full_coalesce_separately(self):
        with AnalysisEngine(max_sessions=4) as engine:
            reqs = [
                {"id": 1, "op": "analyze", "circuit": "c17", "eps": 0.05,
                 "outputs": ["22"]},
                {"id": 2, "op": "analyze", "circuit": "c17", "eps": 0.01,
                 "outputs": ["22"]},
                {"id": 3, "op": "analyze", "circuit": "c17", "eps": 0.05},
            ]
            envs = {r.id: r.to_dict() for r in engine.submit_many(reqs)}
            assert all(e["ok"] for e in envs.values())
            assert envs[1]["coalesced"] == 2 and envs[2]["coalesced"] == 2
            assert envs[3]["coalesced"] == 0
            assert envs[1]["outputs"] == ["22"]

    def test_outputs_guards(self):
        with AnalysisEngine(max_sessions=4) as engine:
            env = engine.submit({"op": "analyze", "circuit": "c17",
                                 "eps": 0.05, "method": "mc",
                                 "outputs": ["22"]}).to_dict()
            assert not env["ok"]
            assert "does not support an outputs= restriction" in env["error"]
            env = engine.submit({"op": "edit", "session": "s1",
                                 "circuit": "c17", "eps": 0.05,
                                 "edits": [{"kind": "set_eps",
                                            "eps": 0.1}],
                                 "options": {"outputs": ["22"]}}).to_dict()
            assert not env["ok"]
            assert "incremental edit sessions" in env["error"]

    def test_unknown_output_is_a_clean_error(self):
        with AnalysisEngine(max_sessions=4) as engine:
            env = engine.submit({"op": "analyze", "circuit": "c17",
                                 "eps": 0.05,
                                 "outputs": ["bogus"]}).to_dict()
            assert not env["ok"]
            assert "not primary outputs" in env["error"]


class TestLargePresets:
    def test_probe_outputs_have_documented_support(self):
        circuit = rand10k()
        from repro.circuit.analysis import input_support
        support = input_support(circuit)
        assert "probe_small" in circuit.outputs
        assert "probe_mid" in circuit.outputs
        assert len(support["probe_small"]) <= 8
        assert len(support["probe_mid"]) <= 20
        assert len(circuit.gates) >= 10_000

    def test_deterministic_generation(self):
        from repro.circuit import structural_hash
        assert structural_hash(rand10k()) == structural_hash(rand10k())
        a = large_random_netlist(2_000, seed=9)
        b = large_random_netlist(2_000, seed=9)
        assert structural_hash(a) == structural_hash(b)
        assert structural_hash(a) != \
            structural_hash(large_random_netlist(2_000, seed=10))

    def test_catalog_fallthrough(self):
        names = large_catalog()
        assert names == ["rand10k", "rand50k", "rand100k"]
        circuit = get_benchmark("rand10k")
        assert len(circuit.gates) >= 10_000
        with pytest.raises(KeyError):
            get_benchmark("rand9999")

    def test_restricted_analysis_on_probe_cone(self):
        circuit = rand10k()
        result = repro.analyze(circuit, 0.05, outputs=["probe_small"],
                               weights="sat")
        assert list(result.per_output) == ["probe_small"]
        assert 0.0 <= result.delta("probe_small") <= 1.0


class TestCli:
    def test_bench_large_lists_presets(self, capsys):
        assert main(["bench", "--large"]) == 0
        out = capsys.readouterr().out
        for name in ("rand10k", "rand50k", "rand100k"):
            assert name in out

    def test_analyze_outputs_flag(self, capsys):
        assert main(["analyze", "c17", "--eps", "0.05",
                     "--outputs", "22", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        point = data["points"][0]
        assert list(point["per_output"]) == ["22"]

    def test_analyze_outputs_matches_full_cli_run(self, capsys):
        args = ["analyze", "c17", "--eps", "0.05", "--json"]
        assert main(args) == 0
        full = json.loads(capsys.readouterr().out)
        assert main(args[:-1] + ["--outputs", "23", "--json"]) == 0
        part = json.loads(capsys.readouterr().out)
        assert part["points"][0]["per_output"]["23"] == \
            full["points"][0]["per_output"]["23"]

    def test_analyze_bad_output_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "c17", "--eps", "0.05", "--outputs", "zork"])

    def test_analyze_sat_weights(self, capsys):
        assert main(["analyze", "c17", "--eps", "0.05",
                     "--weights", "sat", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["points"][0]["per_output"]
