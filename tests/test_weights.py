"""Tests for gate weight-vector computation."""

import numpy as np
import pytest

from repro.circuit import truth_table
from repro.circuits import parity_tree, random_circuit
from repro.probability import (
    bdd_weight_vectors,
    compute_weights,
    exhaustive_weight_vectors,
    sampled_weight_vectors,
)


class TestExactWeights:
    def test_bdd_matches_exhaustive(self, full_adder_circuit):
        wb = bdd_weight_vectors(full_adder_circuit)
        we = exhaustive_weight_vectors(full_adder_circuit)
        for gate in full_adder_circuit.topological_gates():
            np.testing.assert_allclose(wb.weights[gate], we.weights[gate],
                                       atol=1e-12)

    def test_weights_sum_to_one(self, reconvergent_circuit):
        data = exhaustive_weight_vectors(reconvergent_circuit)
        for gate, vec in data.weights.items():
            assert vec.sum() == pytest.approx(1.0)

    def test_uniform_weights_at_primary_gates(self, full_adder_circuit):
        # Gate t = XOR(a, b): both fanins are independent uniform inputs.
        data = bdd_weight_vectors(full_adder_circuit)
        np.testing.assert_allclose(data.weights["t"], [0.25] * 4)

    def test_correlated_fanins_reflected(self, full_adder_circuit):
        # c2 = AND(t, cin) with t = a xor b: still uniform; but in the
        # reconvergent circuit, g5 = NAND(g2, i0) has correlated fanins.
        data = bdd_weight_vectors(full_adder_circuit)
        # paranoid: joint of (s fanins) = (t, cin) uniform
        np.testing.assert_allclose(data.weights["s"], [0.25] * 4)

    def test_reconvergent_joint_not_product(self, reconvergent_circuit):
        data = bdd_weight_vectors(reconvergent_circuit)
        w = data.weights["g5"]  # NAND(g2, i0), correlated
        p_g2 = data.signal_prob["g2"]
        p_i0 = data.signal_prob["i0"]
        independent = np.array([
            (1 - p_g2) * (1 - p_i0), p_g2 * (1 - p_i0),
            (1 - p_g2) * p_i0, p_g2 * p_i0])
        assert not np.allclose(w, independent)

    def test_signal_probs_included(self, full_adder_circuit):
        data = bdd_weight_vectors(full_adder_circuit)
        assert data.signal_prob["s"] == pytest.approx(0.5)
        assert data.signal_prob["a"] == pytest.approx(0.5)

    def test_biased_input_probs(self, full_adder_circuit):
        data = bdd_weight_vectors(full_adder_circuit,
                                  input_probs={"a": 1.0, "b": 1.0})
        assert data.signal_prob["c1"] == pytest.approx(1.0)
        np.testing.assert_allclose(data.weights["c1"], [0, 0, 0, 1.0],
                                   atol=1e-12)

    def test_output_side_weight(self, full_adder_circuit):
        data = bdd_weight_vectors(full_adder_circuit)
        tt = truth_table(full_adder_circuit.node("c1").gate_type, 2)
        w0 = data.output_side_weight("c1", tt, 0)
        w1 = data.output_side_weight("c1", tt, 1)
        assert w0 == pytest.approx(0.75)
        assert w1 == pytest.approx(0.25)


class TestSampledWeights:
    def test_close_to_exact(self, reconvergent_circuit):
        exact = exhaustive_weight_vectors(reconvergent_circuit)
        sampled = sampled_weight_vectors(reconvergent_circuit,
                                         n_patterns=1 << 16, seed=1)
        for gate in reconvergent_circuit.topological_gates():
            np.testing.assert_allclose(sampled.weights[gate],
                                       exact.weights[gate], atol=0.01)

    def test_source_recorded(self, full_adder_circuit):
        assert sampled_weight_vectors(full_adder_circuit).source == "sampled"
        assert exhaustive_weight_vectors(
            full_adder_circuit).source == "exhaustive"
        assert bdd_weight_vectors(full_adder_circuit).source == "bdd"


class TestDispatch:
    def test_auto_uses_exhaustive_for_small(self, full_adder_circuit):
        assert compute_weights(full_adder_circuit).source == "exhaustive"

    def test_auto_falls_back_for_wide_inputs(self):
        circuit = random_circuit(40, 30, 4, seed=0)
        data = compute_weights(circuit, n_patterns=1 << 12)
        assert data.source in ("bdd", "sampled")

    def test_explicit_methods(self, full_adder_circuit):
        for method in ("bdd", "exhaustive", "sampled"):
            assert compute_weights(full_adder_circuit,
                                   method=method).source == method

    def test_unknown_method_rejected(self, full_adder_circuit):
        with pytest.raises(ValueError):
            compute_weights(full_adder_circuit, method="psychic")

    def test_wide_gate_weight_length(self):
        from repro.circuit import CircuitBuilder, GateType
        b = CircuitBuilder("wide")
        a, c, d = b.inputs("a", "c", "d")
        b.outputs(b.gate(GateType.AND, a, c, d, name="y"))
        data = compute_weights(b.build())
        assert len(data.weights["y"]) == 8
        assert data.weights["y"].sum() == pytest.approx(1.0)


def test_pack_counting_never_copies_all_packs():
    """Weight counting works tile by tile: on a ~2k-node netlist its own
    traced peak stays below two tiles, far below one copy of the packs."""
    import tracemalloc

    from repro.probability import weights as weights_mod
    from repro.sim import patterns
    from repro.sim.simulator import simulate

    circuit = random_circuit(n_inputs=64, n_gates=2000, n_outputs=8, seed=1)
    n_patterns = (1 << 16) - 5  # a partly used tail word
    n_words = patterns.words_for_patterns(n_patterns)
    values = simulate(circuit, patterns.random_pack(
        circuit.inputs, n_words, np.random.default_rng(0), None))
    packs = sum(v.nbytes for v in values.values())
    tile = weights_mod._PACK_CHUNK_ELEMENTS * 8
    assert 2 * tile < packs
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = weights_mod._weights_from_packs(circuit, values, n_patterns,
                                               "sampled")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * tile
    assert len(data.weights) == circuit.num_gates
