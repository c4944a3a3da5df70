"""The artifact store: one contract for every kind it persists.

Each kind (weights, cone weights, correlation plans, workspace
snapshots) goes through the same key, verify, corruption-is-a-miss,
atomic-write and metrics path; the contract tests below run once per
kind with that kind's own codec and key.  The owner-level tests check
that every parameter an artifact depends on is part of its key, and that
each cache round trip hashes the circuit once.
"""

import os
import shutil

import numpy as np
import pytest

from repro import obs, store
from repro.circuit import structural_hash
from repro.circuits import c17, get_benchmark
from repro.engine import AnalysisEngine
from repro.engine.state import (
    load_engine_state,
    load_workspace_state,
    store_workspace_state,
)
from repro.obs import metrics as obs_metrics
from repro.probability import weights as weights_mod
from repro.probability.weights import (
    compute_weights,
    decode_weights,
    encode_weights,
    weights_key,
)
from repro.reliability import compiled_pass
from repro.reliability.compiled_pass import CompiledCorrelatedPass
from repro.scale import lazy_weights
from repro.scale.lazy_weights import LazyWeightData


@pytest.fixture
def metrics_on():
    obs.disable()
    obs.reset()
    obs.enable()
    yield obs_metrics.get_registry()
    obs.disable()
    obs.reset()


@pytest.fixture(autouse=True)
def _cold_memory_tier():
    store.memory_tier().clear()
    yield
    store.memory_tier().clear()


def _weights_codec():
    data = compute_weights(c17(), method="sampled", n_patterns=1 << 8)
    return (encode_weights(data), data, None, decode_weights,
            lambda value: value.weights.keys() == data.weights.keys())


def _plan_codec():
    pairs = np.asarray([[5, 0, 1, 1], [6, 1, 2, 0]], dtype=np.int64)
    arrays = {"unsupported": np.asarray(False), "pairs": pairs}

    def decode(archive, manifest):
        return archive["pairs"].astype(np.int64)

    return (arrays, None, None, decode,
            lambda value: np.array_equal(value, pairs))


def _wstate_codec():
    engine = AnalysisEngine(max_sessions=2)
    try:
        env = engine.submit({"op": "edit", "session": "ws", "circuit": "c17",
                             "edits": [{"kind": "set_eps", "eps": 0.03}],
                             "options": {"weights": "sampled",
                                         "n_patterns": 256}}).to_dict()
        assert env["ok"]
        manifest, arrays = engine._edit_sessions["ws"].workspace().to_state()
    finally:
        engine.close()

    def decode(archive, stored):
        return stored["structural_hash"]

    return (arrays, None, manifest, decode,
            lambda value: value == manifest["structural_hash"])


_HASH = structural_hash(c17())

#: kind -> (key as its owner builds it, codec factory).  The codec gives
#: (arrays, value kept in memory, manifest meta, decode, check(value)).
#: The weights key's fields are a subset of the conewt key's, so only the
#: manifest's kind tag tells those two entries apart.
CASES = {
    "weights": (weights_key(_HASH, "sampled", 1 << 8, 0), _weights_codec),
    "conewt": ({"circuit_hash": _HASH, "cone_root": "22", "method":
                "sampled", "n_patterns": 1 << 8, "seed": 0,
                "input_probs": []}, _weights_codec),
    "corrplan": ({"circuit_hash": _HASH, "max_level_gap": 3,
                  "max_pairs": 1000}, _plan_codec),
    "wstate": ({"session": "ws", "structural_hash": _HASH},
               _wstate_codec),
}


def _changed(value):
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return list(value) + [["extra", 0.5]]


def test_every_kind_has_a_contract_case():
    assert set(CASES) == set(store.KINDS)


@pytest.mark.parametrize("kind", sorted(CASES))
class TestStoreContract:
    def _save(self, root, kind, key=None):
        base, codec = CASES[kind]
        arrays, value, meta, decode, check = codec()
        store.save(str(root), kind, key or base, arrays, value, meta=meta)
        return base, decode, check

    def test_miss_store_hit(self, kind, tmp_path, metrics_on):
        base, codec = CASES[kind]
        arrays, value, meta, decode, check = codec()
        assert store.load(str(tmp_path), kind, base, decode) is None
        path = store.save(str(tmp_path), kind, base, arrays, value,
                          meta=meta)
        assert os.path.basename(path).startswith(f"{kind}-")
        store.memory_tier().clear()
        assert check(store.load(str(tmp_path), kind, base, decode))
        assert metrics_on.value("cache.misses", kind=kind) == 1
        assert metrics_on.value("cache.stores", kind=kind) == 1
        assert metrics_on.value("cache.hits", kind=kind) == 1

    @pytest.mark.parametrize("damage", ["truncate", "garbage"])
    def test_damaged_entry_is_a_corrupt_miss(self, kind, damage, tmp_path,
                                             metrics_on):
        base, decode, _ = self._save(tmp_path, kind)
        store.memory_tier().clear()
        path = store.entry_path(str(tmp_path), kind, base)
        if damage == "truncate":
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) // 2)
        else:
            with open(path, "wb") as fh:
                fh.write(b"this is not an npz archive")
        assert store.load(str(tmp_path), kind, base, decode) is None
        assert metrics_on.value("cache.corrupt", kind=kind) == 1

    def test_entry_of_another_kind_is_a_miss(self, kind, tmp_path):
        base, decode, _ = self._save(tmp_path, kind)
        target = store.entry_path(str(tmp_path), kind, base)
        for other in sorted(set(CASES) - {kind}):
            other_root = tmp_path / other
            other_key, _, _ = self._save(other_root, other)
            shutil.copyfile(
                store.entry_path(str(other_root), other, other_key), target)
            store.memory_tier().clear()
            assert store.load(str(tmp_path), kind, base, decode) is None

    def test_each_key_field_names_a_different_entry(self, kind, tmp_path):
        base, decode, check = self._save(tmp_path, kind)
        for field, value in base.items():
            key = dict(base, **{field: _changed(value)})
            assert store.load(str(tmp_path), kind, key, decode) is None, field
        assert check(store.load(str(tmp_path), kind, base, decode))


class TestOwnerKeys:
    """Every parameter an artifact depends on is in its owner's key."""

    def _kinds(self, root):
        return sorted(name.split("-")[0] for name in os.listdir(root))

    @pytest.mark.parametrize("change", [
        {"method": "exhaustive"}, {"n_patterns": 1 << 9}, {"seed": 1},
        {"input_probs": {"1": 0.3}}])
    def test_cone_weights(self, tmp_path, change):
        circuit = c17()
        base = dict(method="sampled", n_patterns=1 << 8, seed=0,
                    input_probs=None)
        for params in (base, dict(base, **change)):
            lazy = LazyWeightData(circuit, cache_dir=str(tmp_path), **params)
            lazy.restrict(circuit.outputs[:1])
        assert self._kinds(tmp_path) == ["conewt", "conewt"]

    @pytest.mark.parametrize("change", [
        {"max_level_gap": 2}, {"max_pairs": 500_000}])
    def test_correlation_plan(self, tmp_path, change):
        circuit = c17()
        weights = compute_weights(circuit, method="exhaustive")
        base = dict(max_level_gap=None, max_pairs=1_000_000)
        for params in (base, dict(base, **change)):
            CompiledCorrelatedPass(circuit, weights,
                                   cache_dir=str(tmp_path), **params)
        assert self._kinds(tmp_path) == ["corrplan", "corrplan"]


def _count_hashes(monkeypatch, module):
    calls = []
    real = module.structural_hash

    def counting(circuit):
        calls.append(circuit.name)
        return real(circuit)

    monkeypatch.setattr(module, "structural_hash", counting)
    return calls


class TestOneHashPerRoundTrip:
    def test_compute_weights_miss_and_store(self, tmp_path, monkeypatch):
        calls = _count_hashes(monkeypatch, weights_mod)
        compute_weights(c17(), method="sampled", n_patterns=1 << 8,
                        cache_dir=str(tmp_path))
        assert len(calls) == 1
        assert len(os.listdir(tmp_path)) == 1

    def test_lazy_weights_across_cones(self, tmp_path, monkeypatch):
        calls = _count_hashes(monkeypatch, lazy_weights)
        circuit = get_benchmark("c432")
        lazy = LazyWeightData(circuit, method="sampled", n_patterns=1 << 8,
                              cache_dir=str(tmp_path))
        for output in circuit.outputs[:3]:
            lazy.restrict([output])
        assert lazy.cones_materialized == 3
        assert len(calls) == 1

    def test_correlated_compile(self, tmp_path, monkeypatch):
        calls = _count_hashes(monkeypatch, compiled_pass)
        circuit = c17()
        weights = compute_weights(circuit, method="exhaustive")
        CompiledCorrelatedPass(circuit, weights, cache_dir=str(tmp_path))
        assert len(calls) == 1
        CompiledCorrelatedPass(circuit, weights, cache_dir=str(tmp_path))
        assert len(calls) == 2


class TestAtomicWrite:
    def _record(self, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", None))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return events

    def test_entry_is_synced_before_rename(self, tmp_path, monkeypatch):
        events = self._record(monkeypatch)
        path = store.save(str(tmp_path), "corrplan", CASES["corrplan"][0],
                          _plan_codec()[0])
        assert events == [("fsync", None),
                          ("replace", os.path.basename(path))]

    def test_engine_state_manifest_is_synced_before_rename(
            self, tmp_path, monkeypatch):
        engine = AnalysisEngine(max_sessions=2, state_dir=str(tmp_path))
        try:
            env = engine.submit({"op": "edit", "session": "ws",
                                 "circuit": "c17",
                                 "edits": [{"kind": "set_eps",
                                            "eps": 0.03}]}).to_dict()
            assert env["ok"]
            events = self._record(monkeypatch)
            engine.save_state()
        finally:
            engine.close()
        assert [e[0] for e in events] == ["fsync", "replace"] * 2
        assert events[1][1].startswith("wstate-")
        assert events[3] == ("replace", "engine-state.json")
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


class TestTornSnapshot:
    def test_entry_newer_than_manifest_is_rejected(self, tmp_path,
                                                   monkeypatch, metrics_on):
        opts = {"weights": "sampled", "n_patterns": 256, "seed": 7}
        engine = AnalysisEngine(max_sessions=4, state_dir=str(tmp_path))
        try:
            for name in ("kept", "torn"):
                env = engine.submit({
                    "op": "edit", "session": name, "circuit": "c17",
                    "edits": [{"kind": "set_eps", "eps": 0.03}],
                    "options": opts}).to_dict()
                assert env["ok"]
            engine.save_state()
            env = engine.submit({
                "op": "edit", "session": "torn",
                "edits": [{"kind": "swap_gate", "gate": "16",
                           "gate_type": "nor"}]}).to_dict()
            assert env["ok"]
            real = store.atomic_write

            def crash_on_manifest(path, write):
                if path.endswith("engine-state.json"):
                    raise OSError("simulated crash")
                real(path, write)

            monkeypatch.setattr(store, "atomic_write", crash_on_manifest)
            with pytest.raises(OSError, match="simulated crash"):
                engine.save_state()
            monkeypatch.undo()
        finally:
            engine.close()
        obs.enable()
        restored = AnalysisEngine(max_sessions=4)
        try:
            summary = load_engine_state(restored, str(tmp_path))
            assert summary["sessions"] == 1
            assert [e.split(":")[0] for e in summary["errors"]] == ["torn"]
            assert "kept" in restored._edit_sessions
            assert "torn" not in restored._edit_sessions
            assert metrics_on.value("engine.state.load_errors") == 1
        finally:
            restored.close()


def test_workspace_state_helpers_round_trip(tmp_path):
    arrays, _, manifest, _, _ = _wstate_codec()
    path = store_workspace_state(str(tmp_path), "solo", manifest, arrays)
    assert os.path.basename(path).startswith("wstate-")
    workspace = load_workspace_state(str(tmp_path), "solo")
    assert structural_hash(workspace.circuit) == manifest["structural_hash"]
    assert load_workspace_state(str(tmp_path), "solo", "0" * 64) is None
    assert load_workspace_state(str(tmp_path), "other") is None
