"""Persistent weight-vector cache: keying, round-trips, corruption."""

import json
import os

import numpy as np
import pytest

from repro.circuit import Circuit, GateType
from repro.circuits import c17, get_benchmark
from repro.cli import main
from repro.probability.weight_cache import (
    cache_key,
    load_weights,
    store_weights,
    structural_hash,
)
from repro.probability.weights import compute_weights


def _entries(cache_dir):
    return sorted(p for p in os.listdir(cache_dir) if p.endswith(".npz"))


def _assert_same_weights(a, b):
    assert a.source == b.source
    assert a.weights.keys() == b.weights.keys()
    for gate in a.weights:
        assert np.array_equal(a.weights[gate], b.weights[gate])
    assert a.signal_prob.keys() == b.signal_prob.keys()
    for node in a.signal_prob:
        assert a.signal_prob[node] == b.signal_prob[node]


class TestStructuralHash:
    def test_name_independent(self):
        a = c17()
        b = c17()
        b.name = "same-netlist-different-label"
        assert structural_hash(a) == structural_hash(b)

    def test_gate_rename_changes_hash(self):
        def build(mid_name):
            c = Circuit(name="t")
            for pi in ("a", "b"):
                c.add_input(pi)
            c.add_gate(mid_name, GateType.NAND, ["a", "b"])
            c.add_gate("y", GateType.NOT, [mid_name])
            c.set_output("y")
            return c

        assert structural_hash(build("m")) != structural_hash(build("m2"))

    def test_structure_change_changes_hash(self):
        def build(gtype):
            c = Circuit(name="t")
            for pi in ("a", "b"):
                c.add_input(pi)
            c.add_gate("y", gtype, ["a", "b"])
            c.set_output("y")
            return c

        assert structural_hash(build(GateType.NAND)) != \
            structural_hash(build(GateType.NOR))


class TestCacheKey:
    def test_parameters_partition_the_keyspace(self):
        circuit = c17()
        base = dict(method="sampled", n_patterns=1 << 8, seed=0)
        key = cache_key(circuit, **base)
        assert cache_key(circuit, **base) == key
        variants = [
            dict(base, method="exhaustive"),
            dict(base, n_patterns=1 << 9),
            dict(base, seed=1),
            dict(base, input_probs={circuit.inputs[0]: 0.3}),
        ]
        keys = {cache_key(circuit, **v) for v in variants}
        assert key not in keys
        assert len(keys) == len(variants)

    def test_node_limit_keys_auto_entries_only(self):
        circuit = c17()
        auto = dict(method="auto", n_patterns=1 << 8, seed=0)
        assert cache_key(circuit, **auto) != \
            cache_key(circuit, **auto, bdd_node_limit=5_000_000)
        sampled = dict(auto, method="sampled")
        assert cache_key(circuit, **sampled) == \
            cache_key(circuit, **sampled, bdd_node_limit=5_000_000)


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        circuit = get_benchmark("fig1a")
        cache = str(tmp_path / "wcache")
        cold = compute_weights(circuit, method="sampled", n_patterns=1 << 8,
                               seed=3, cache_dir=cache)
        assert len(_entries(cache)) == 1
        warm = compute_weights(circuit, method="sampled", n_patterns=1 << 8,
                               seed=3, cache_dir=cache)
        assert len(_entries(cache)) == 1
        _assert_same_weights(cold, warm)

    def test_load_store_api(self, tmp_path):
        circuit = c17()
        data = compute_weights(circuit, method="exhaustive")
        cache = str(tmp_path / "wcache")
        assert load_weights(cache if os.path.isdir(cache) else str(tmp_path),
                            circuit, "exhaustive", 1 << 12, 0) is None
        store_weights(cache, circuit, "exhaustive", 1 << 12, 0, None, data)
        back = load_weights(cache, circuit, "exhaustive", 1 << 12, 0)
        assert back is not None
        _assert_same_weights(data, back)

    def test_different_seed_creates_new_entry(self, tmp_path):
        circuit = c17()
        cache = str(tmp_path / "wcache")
        compute_weights(circuit, method="sampled", n_patterns=1 << 8,
                        seed=0, cache_dir=cache)
        compute_weights(circuit, method="sampled", n_patterns=1 << 8,
                        seed=1, cache_dir=cache)
        assert len(_entries(cache)) == 2

    def test_non_uniform_input_probs_round_trip(self, tmp_path):
        circuit = c17()
        probs = {circuit.inputs[0]: 0.25, circuit.inputs[2]: 0.9}
        cache = str(tmp_path / "wcache")
        cold = compute_weights(circuit, method="sampled", n_patterns=1 << 8,
                               seed=0, input_probs=probs, cache_dir=cache)
        warm = compute_weights(circuit, method="sampled", n_patterns=1 << 8,
                               seed=0, input_probs=probs, cache_dir=cache)
        _assert_same_weights(cold, warm)


    def test_auto_entry_not_served_across_node_limits(self, tmp_path):
        # 1410 node-BDD nodes: sampled under a 100-node limit, exact BDD
        # weights under the default one.
        circuit = get_benchmark("b9_low_fanout")
        cache = str(tmp_path / "wcache")
        small = compute_weights(circuit, n_patterns=1 << 8,
                                bdd_node_limit=100, cache_dir=cache)
        assert small.source == "sampled"
        default = compute_weights(circuit, n_patterns=1 << 8,
                                  cache_dir=cache)
        assert default.source == "bdd"
        assert len(_entries(cache)) == 2
        again = compute_weights(circuit, n_patterns=1 << 8,
                                bdd_node_limit=100, cache_dir=cache)
        _assert_same_weights(small, again)


class TestCorruptionRecovery:
    def _populate(self, tmp_path):
        circuit = c17()
        cache = str(tmp_path / "wcache")
        data = compute_weights(circuit, method="sampled", n_patterns=1 << 8,
                               seed=0, cache_dir=cache)
        (entry,) = _entries(cache)
        return circuit, cache, data, os.path.join(cache, entry)

    def test_truncated_entry_recomputed(self, tmp_path):
        circuit, cache, data, path = self._populate(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(16)
        again = compute_weights(circuit, method="sampled",
                                n_patterns=1 << 8, seed=0, cache_dir=cache)
        _assert_same_weights(data, again)
        # The rewrite healed the entry: next read is a real hit.
        assert load_weights(cache, circuit, "sampled", 1 << 8, 0) is not None

    def test_garbage_entry_recomputed(self, tmp_path):
        circuit, cache, data, path = self._populate(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"this is not an npz archive")
        again = compute_weights(circuit, method="sampled",
                                n_patterns=1 << 8, seed=0, cache_dir=cache)
        _assert_same_weights(data, again)

    def test_stale_entry_for_edited_netlist_is_a_miss(self, tmp_path):
        """Same key file, different structure inside => manifest mismatch."""
        circuit, cache, _, path = self._populate(tmp_path)
        other = get_benchmark("fig1a")
        key_other = cache_key(other, "sampled", 1 << 8, 0)
        store_weights(cache, other, "sampled", 1 << 8, 0, None,
                      compute_weights(other, method="sampled",
                                      n_patterns=1 << 8, seed=0))
        # Graft the other circuit's entry over c17's key: detected stale.
        grafted = os.path.join(cache, f"weights-{key_other}.npz")
        os.replace(grafted, path)
        assert load_weights(cache, circuit, "sampled", 1 << 8, 0) is None


class TestCliIntegration:
    def test_analyze_weights_cache(self, tmp_path, capsys):
        cache = tmp_path / "wcache"
        args = ["analyze", "c17", "--eps", "0.05", "--weights", "sampled",
                "--json", "--weights-cache", str(cache)]
        def run():
            assert main(args) == 0
            data = json.loads(capsys.readouterr().out)
            data.pop("elapsed_s", None)
            return data

        first = run()
        # One weight entry plus the compiled correlated kernel's pair-table
        # entry (analyze dispatches correlated-compiled by default).
        entries = _entries(str(cache))
        assert len(entries) == 2
        assert any(e.startswith("weights-") for e in entries)
        assert any(e.startswith("corrplan-") for e in entries)
        assert run() == first
        assert len(_entries(str(cache))) == 2

    def test_curve_weights_cache(self, tmp_path, capsys):
        cache = tmp_path / "wcache"
        args = ["curve", "fig1a", "--points", "3", "--max-eps", "0.1",
                "--patterns", "256", "--weights-cache", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert len(_entries(str(cache))) >= 1
        n_entries = len(_entries(str(cache)))
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert len(_entries(str(cache))) == n_entries

    def test_report_weights_cache(self, tmp_path, capsys):
        cache = tmp_path / "wcache"
        assert main(["report", "fig1a", "--patterns", "256",
                     "--no-testability",
                     "--weights-cache", str(cache)]) == 0
        capsys.readouterr()
        assert len(_entries(str(cache))) >= 1
