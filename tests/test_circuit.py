"""Unit tests for the Circuit netlist structure."""

import hashlib

import pytest

from repro.circuit import Circuit, CircuitError, GateType, structural_hash


def small() -> Circuit:
    c = Circuit("small")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("g2", GateType.NOT, ["g1"])
    c.set_output("g2")
    return c


class TestConstruction:
    def test_basic(self):
        c = small()
        assert len(c) == 4
        assert c.inputs == ["a", "b"]
        assert c.outputs == ["g2"]
        assert c.gates == ["g1", "g2"]
        assert c.num_gates == 2

    def test_duplicate_name_rejected(self):
        c = small()
        with pytest.raises(CircuitError):
            c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_gate("g1", GateType.OR, ["a", "b"])

    def test_empty_name_rejected(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.add_input("")

    def test_undefined_fanin_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_gate("g", GateType.NOT, ["missing"])

    def test_gate_type_must_be_enum(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(TypeError):
            c.add_gate("g", "not", ["a"])

    def test_output_must_exist(self):
        c = small()
        with pytest.raises(CircuitError):
            c.set_output("nope")

    def test_output_twice_rejected(self):
        c = small()
        with pytest.raises(CircuitError):
            c.set_output("g2")

    def test_constants(self):
        c = Circuit()
        c.add_const("zero", 0)
        c.add_const("one", 1)
        c.add_gate("g", GateType.OR, ["zero", "one"])
        c.set_output("g")
        assert c.evaluate({})["g"] == 1

    def test_contains_and_node_lookup(self):
        c = small()
        assert "g1" in c and "zz" not in c
        assert c.node("g1").gate_type is GateType.AND
        with pytest.raises(CircuitError):
            c.node("zz")

    def test_repr(self):
        assert "small" in repr(small())


class TestDerivedViews:
    def test_topological_order(self):
        c = small()
        order = c.topological_order()
        assert order.index("a") < order.index("g1") < order.index("g2")

    def test_topological_gates(self):
        assert small().topological_gates() == ["g1", "g2"]

    def test_levels(self):
        c = small()
        assert c.level("a") == 0
        assert c.level("g1") == 1
        assert c.level("g2") == 2
        assert c.depth == 2

    def test_fanouts(self):
        c = small()
        assert c.fanouts("a") == ("g1",)
        assert c.fanouts("g1") == ("g2",)
        assert c.fanouts("g2") == ()

    def test_fanout_count_multiplicity(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", GateType.XOR, ["a", "a"])
        c.set_output("g")
        assert c.fanouts("a") == ("g",)
        assert c.fanout_count("a") == 2

    def test_caches_invalidate_on_mutation(self):
        c = small()
        assert c.depth == 2
        c.add_gate("g3", GateType.NOT, ["g2"])
        assert c.depth == 3
        assert "g3" in c.topological_order()

    def test_views_follow_interleaved_appends(self):
        c = small()
        assert c.fanouts("g2") == ()
        c.add_gate("g3", GateType.OR, ["g2", "a"])
        c.set_output("g3")
        c.add_gate("g4", GateType.XOR, ["g3", "g3"])
        assert c.fanouts("a") == ("g1", "g3")
        assert c.fanouts("g3") == ("g4",)
        assert [c.level(n) for n in c.topological_order()] == [
            0, 0, 1, 2, 3, 4]
        assert c.topological_gates() == ["g1", "g2", "g3", "g4"]

    def test_rejected_gate_leaves_views_untouched(self):
        c = small()
        with pytest.raises(CircuitError):
            c.add_gate("bad", GateType.AND, ["a", "missing"])
        assert "bad" not in c
        assert c.fanouts("a") == ("g1",)
        assert c.topological_order() == ["a", "b", "g1", "g2"]


class TestCones:
    def test_transitive_fanin(self):
        c = small()
        assert c.transitive_fanin(["g2"]) == ["a", "b", "g1", "g2"]
        assert c.transitive_fanin(["g2"], include_roots=False) == [
            "a", "b", "g1"]

    def test_cone_extraction(self):
        c = Circuit("two")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g1", GateType.NOT, ["a"])
        c.add_gate("g2", GateType.NOT, ["b"])
        c.set_output("g1")
        c.set_output("g2")
        cone = c.cone("g1")
        assert cone.outputs == ["g1"]
        assert "b" not in cone
        assert "g2" not in cone

    def test_copy_is_independent(self):
        c = small()
        dup = c.copy("dup")
        dup.add_gate("extra", GateType.NOT, ["g2"])
        assert "extra" not in c
        assert dup.name == "dup"
        assert c.fanouts("g2") == () and dup.fanouts("g2") == ("extra",)
        assert c.depth == 2 and dup.depth == 3
        assert c.topological_order() == ["a", "b", "g1", "g2"]


class TestEvaluate:
    def test_evaluate_all_vectors(self):
        c = small()
        for a in (0, 1):
            for b in (0, 1):
                values = c.evaluate({"a": a, "b": b})
                assert values["g1"] == (a & b)
                assert values["g2"] == (a & b) ^ 1

    def test_evaluate_outputs_only(self):
        c = small()
        assert c.evaluate_outputs({"a": 1, "b": 1}) == {"g2": 0}

    def test_missing_input_raises(self):
        c = small()
        with pytest.raises(CircuitError):
            c.evaluate({"a": 1})

    def test_values_coerced_to_bits(self):
        c = small()
        assert c.evaluate({"a": 3, "b": 1})["g1"] == 1


class TestValidate:
    def test_requires_output(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.validate()

    def test_valid_circuit_passes(self):
        small().validate()

    def test_iteration_yields_nodes(self):
        names = [n.name for n in small()]
        assert names == ["a", "b", "g1", "g2"]


class TestStructuralHashMemo:
    """``structural_hash`` is memoized on the circuit; mutators clear it."""

    @staticmethod
    def _count_digests(monkeypatch):
        from types import SimpleNamespace

        from repro.circuit import circuit as circuit_mod
        calls = []

        def sha256(data):
            calls.append(len(data))
            return hashlib.sha256(data)

        monkeypatch.setattr(circuit_mod, "hashlib",
                            SimpleNamespace(sha256=sha256))
        return calls

    def test_every_mutator_changes_the_hash(self):
        c = small()
        seen = [structural_hash(c)]
        for mutate in (lambda: c.add_input("x"),
                       lambda: c.add_const("one", 1),
                       lambda: c.add_gate("g3", GateType.OR, ["g1", "x"]),
                       lambda: c.set_output("g3")):
            mutate()
            digest = structural_hash(c)
            assert digest not in seen
            seen.append(digest)
        assert structural_hash(c.copy()) == seen[-1]

    def test_repeat_hash_is_memoized(self, monkeypatch):
        calls = self._count_digests(monkeypatch)
        c = small()
        first = structural_hash(c)
        assert structural_hash(c) == first
        assert len(calls) == 1
        c.add_input("x")
        assert structural_hash(c) != first
        assert len(calls) == 2

    def test_repeat_session_hit_hashes_zero_times(self, monkeypatch):
        from repro.circuits import c17
        from repro.engine import AnalysisEngine

        circuit = c17()
        engine = AnalysisEngine()
        session = engine.session(circuit, weights="sampled")
        calls = self._count_digests(monkeypatch)
        for _ in range(3):
            assert engine.session(circuit, weights="sampled") is session
        assert calls == []
        assert engine.session_hits == 3
