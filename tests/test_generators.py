"""Functional tests for the circuit generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import circuit_stats, is_tree
from repro.circuits import (
    array_multiplier,
    c17,
    equality_comparator,
    fig1_circuit,
    fig2_circuit,
    get_benchmark,
    majority_voter,
    mux_tree,
    one_hot_decoder,
    parity_tree,
    random_circuit,
    ripple_carry_adder,
    sec_circuit,
)
from repro.circuits.generators import _Pcg64Replay, fanin_network
from repro.circuit import structural_hash


class TestArithmetic:
    @pytest.mark.parametrize("width", [1, 3, 4])
    def test_ripple_carry_adder(self, width):
        circuit = ripple_carry_adder(width)
        for a in range(1 << width):
            for b in range(1 << width):
                for cin in (0, 1):
                    assignment = {"cin": cin}
                    for i in range(width):
                        assignment[f"a{i}"] = (a >> i) & 1
                        assignment[f"b{i}"] = (b >> i) & 1
                    out = circuit.evaluate_outputs(assignment)
                    total = a + b + cin
                    got = sum(out[f"sum{i}"] << i for i in range(width))
                    got += out["cout"] << width
                    assert got == total, (a, b, cin)

    @pytest.mark.parametrize("width", [2, 3])
    def test_array_multiplier(self, width):
        circuit = array_multiplier(width)
        for a in range(1 << width):
            for b in range(1 << width):
                assignment = {}
                for i in range(width):
                    assignment[f"a{i}"] = (a >> i) & 1
                    assignment[f"b{i}"] = (b >> i) & 1
                out = circuit.evaluate_outputs(assignment)
                got = sum(v << int(k[1:]) for k, v in out.items())
                assert got == a * b, (a, b, got)

    def test_multiplier_width_validation(self):
        with pytest.raises(ValueError):
            array_multiplier(1)


class TestCombinational:
    @pytest.mark.parametrize("width", [2, 5, 8])
    def test_parity_tree(self, width):
        circuit = parity_tree(width)
        assert is_tree(circuit)
        for k in range(1 << width):
            assignment = {f"x{i}": (k >> i) & 1 for i in range(width)}
            expected = bin(k).count("1") % 2
            assert circuit.evaluate_outputs(assignment)["parity"] == expected

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_mux_tree(self, bits):
        circuit = mux_tree(bits)
        n_data = 1 << bits
        for sel in range(n_data):
            for data in (0, (1 << n_data) - 1, 0b1010101 & ((1 << n_data) - 1)):
                assignment = {f"s{i}": (sel >> i) & 1 for i in range(bits)}
                assignment.update(
                    {f"d{i}": (data >> i) & 1 for i in range(n_data)})
                out = circuit.evaluate_outputs(assignment)["y"]
                assert out == (data >> sel) & 1

    @pytest.mark.parametrize("width", [1, 3])
    def test_equality_comparator(self, width):
        circuit = equality_comparator(width)
        for a in range(1 << width):
            for b in range(1 << width):
                assignment = {}
                for i in range(width):
                    assignment[f"a{i}"] = (a >> i) & 1
                    assignment[f"b{i}"] = (b >> i) & 1
                assert (circuit.evaluate_outputs(assignment)["eq"]
                        == int(a == b))

    @pytest.mark.parametrize("bits", [2, 3])
    def test_one_hot_decoder(self, bits):
        circuit = one_hot_decoder(bits)
        for sel in range(1 << bits):
            assignment = {f"s{i}": (sel >> i) & 1 for i in range(bits)}
            out = circuit.evaluate_outputs(assignment)
            for code in range(1 << bits):
                assert out[f"y{code}"] == int(code == sel)

    @pytest.mark.parametrize("n", [3, 5])
    def test_majority_voter(self, n):
        circuit = majority_voter(n)
        for k in range(1 << n):
            assignment = {f"x{i}": (k >> i) & 1 for i in range(n)}
            expected = int(bin(k).count("1") > n // 2)
            assert circuit.evaluate_outputs(assignment)["maj"] == expected

    def test_majority_needs_odd(self):
        with pytest.raises(ValueError):
            majority_voter(4)


class TestC17AndFigures:
    def test_c17_is_the_published_netlist(self):
        circuit = c17()
        assert circuit.num_gates == 6
        assert all(circuit.node(g).gate_type.value == "nand"
                   for g in circuit.gates)
        # Spot-check known responses (hand-evaluated NAND network).
        out = circuit.evaluate_outputs({p: 0 for p in circuit.inputs})
        assert out["22"] == 0 and out["23"] == 0
        out = circuit.evaluate_outputs({p: 1 for p in circuit.inputs})
        assert out["22"] == 1 and out["23"] == 0

    def test_fig1_structure(self):
        circuit = fig1_circuit()
        # Gx in transitive fanin of Gy; reconvergence present.
        assert "Gx" in circuit.transitive_fanin(["Gy"])
        from repro.circuit import reconvergent_gates
        assert reconvergent_gates(circuit)

    def test_fig2_structure(self):
        circuit = fig2_circuit()
        assert circuit.num_gates == 6
        # Gate 2 fans out to gates 4 and 5 which reconverge at gate 6.
        assert set(circuit.fanouts("n2")) == {"n4", "n5"}
        assert set(circuit.fanins("n6")) == {"n4", "n5"}


class TestRandomCircuit:
    def test_deterministic(self):
        a = random_circuit(8, 40, 5, seed=7)
        b = random_circuit(8, 40, 5, seed=7)
        assert [n.name for n in a] == [n.name for n in b]
        assert [(n.gate_type, n.fanins) for n in a] == \
            [(n.gate_type, n.fanins) for n in b]

    def test_different_seeds_differ(self):
        a = random_circuit(8, 40, 5, seed=7)
        b = random_circuit(8, 40, 5, seed=8)
        assert [(n.gate_type, n.fanins) for n in a] != \
            [(n.gate_type, n.fanins) for n in b]

    def test_gate_count_exact(self):
        circuit = random_circuit(10, 77, 9, seed=3)
        assert circuit.num_gates == 77

    def test_no_dead_logic(self):
        circuit = random_circuit(10, 60, 6, seed=1)
        outputs = set(circuit.outputs)
        for gate in circuit.gates:
            assert circuit.fanouts(gate) or gate in outputs

    def test_max_fanout_respected(self):
        circuit = random_circuit(10, 80, 8, seed=2, max_fanout=3)
        for name in circuit.topological_order():
            assert circuit.fanout_count(name) <= 3

    def test_xor_weight_zero_removes_parity_gates(self):
        circuit = random_circuit(8, 50, 5, seed=4, xor_weight=0.0)
        kinds = {circuit.node(g).gate_type.value for g in circuit.gates}
        assert "xor" not in kinds and "xnor" not in kinds

    def test_validation(self):
        with pytest.raises(ValueError):
            random_circuit(1, 10, 2, seed=0)


#: ``structural_hash`` of every ``random_circuit``-built preset, recorded
#: when gate types were still drawn with ``rng.choice(..., p=weights)``:
#: the CDF draw must reproduce those netlists exactly.
RANDOM_PRESET_HASHES = {
    "x2": "02bd173dcf187d0d53f401719a55343d8afdee8f24ea6f5e46a77c8902572950",
    "cu": "bb5a247280c2835282ca6263678011904c2c30fce06c3b2258c25560cf078274",
    "b9": "5600457f35bad2bc8227dddd026be9730cc4fc0f357dbbf1b661c0efd5f841f4",
    "c432":
        "7f634c0fac568a250c10deb4ed5d08bec937a647aa352d124c5e31ebc1f6678d",
    "c880":
        "21f9694410c25c7fcdf2fc19ed224e7035d5a287dd368f467279026f15d9a3be",
    "c1908":
        "0a0fd5da46e242465ee725b6911b5b1ad9436175cd27bb5f9c5eac8b18ffb3b2",
    "c2670":
        "55e7b9c118eeeacf66525cc265fdfa9c2b7a90dcfdd760ac2a0e174e2f35c223",
    "frg2":
        "de7ee2debcb2277798450e0ecf8acb3523202f63b05f16f5326e13a66f64cbb2",
    "c3540":
        "923aee4317543921b88db6d6d6b53ee0351890fda3dfeb5dc971c487c6a767fb",
    "i10": "35cd78a01cbe12da69c6a3b82ee20835240f28d27da594565b2a140234e5b1e3",
    "rand10k":
        "325955f5e09934193baa5ed49d07a81188240c350fab1fa5165cc4406ba23561",
    "rand50k":
        "0ab029aa187965a9f1a7d3a4e24d017f23665fee98ae564e6fb7ab9ed2cee79c",
    # Recorded while every draw was still a Generator call.
    "rand100k":
        "391b19cdc107323b5f54e61cd4347cf58b21a39863a4c80cb31b917c361c36c3",
}


@pytest.mark.parametrize("name", sorted(RANDOM_PRESET_HASHES))
def test_random_presets_are_pinned(name):
    assert structural_hash(get_benchmark(name)) == RANDOM_PRESET_HASHES[name]


#: Bounds for ``integers(n)``: the trivial range, small pools, and two
#: bounds whose Lemire draw rejects (often for 2**31 + 1).
_REPLAY_BOUNDS = [1, 2, 24, 2**31 + 1, 2**32 - 1]


class TestPcg64Replay:
    """``random_circuit`` replays ``default_rng(seed)`` from raw words."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           calls=st.lists(st.sampled_from(["random"] + _REPLAY_BOUNDS),
                          max_size=200))
    def test_interleavings_match_generator(self, seed, calls):
        rng = np.random.default_rng(seed)
        replay = _Pcg64Replay(seed)
        for call in calls:
            if call == "random":
                assert replay.random() == rng.random()
            else:
                assert replay.integers(call) == int(rng.integers(call))

    def test_crosses_raw_word_blocks(self):
        rng = np.random.default_rng(5)
        replay = _Pcg64Replay(5)
        n_words = 3 * _Pcg64Replay._BLOCK
        for k in range(n_words):
            if k % 3:
                assert replay.integers(24) == int(rng.integers(24))
            else:
                assert replay.random() == rng.random()

    def test_rejects_bounds_beyond_32_bits(self):
        with pytest.raises(ValueError):
            _Pcg64Replay(0).integers(2**32 + 1)
        with pytest.raises(ValueError):
            _Pcg64Replay(0).integers(0)


class TestSecCircuit:
    def test_corrects_single_check_equals_clean_when_disabled(self):
        circuit = sec_circuit(data_bits=8, check_bits=5, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            data = int(rng.integers(1 << 8))
            assignment = {f"d{i}": (data >> i) & 1 for i in range(8)}
            # Compute consistent check bits by asking the circuit itself:
            # with en=0 the outputs are just the data.
            assignment.update({f"c{j}": int(rng.integers(2))
                               for j in range(5)})
            assignment["en"] = 0
            out = circuit.evaluate_outputs(assignment)
            got = sum(out[f"q{i}"] << i for i in range(8))
            assert got == data

    def test_corrects_single_data_error(self):
        # All-zero data recomputes all-zero checks, so the all-zero check
        # word is consistent (syndrome 0).  A single flipped data bit then
        # produces exactly that bit's syndrome pattern, and the decoder must
        # restore the zero word.
        circuit = sec_circuit(data_bits=8, check_bits=5, seed=1)
        base = {f"d{i}": 0 for i in range(8)}
        base.update({f"c{j}": 0 for j in range(5)})
        base["en"] = 1
        out = circuit.evaluate_outputs(base)
        assert sum(out[f"q{i}"] << i for i in range(8)) == 0
        for flip in range(8):
            corrupted = dict(base)
            corrupted[f"d{flip}"] = 1
            out = circuit.evaluate_outputs(corrupted)
            got = sum(out[f"q{i}"] << i for i in range(8))
            assert got == 0, flip

    def test_single_check_error_is_harmless(self):
        # A corrupted check bit yields a weight-1 syndrome; every data
        # pattern has weight >= 2, so no decoder fires.
        circuit = sec_circuit(data_bits=8, check_bits=5, seed=1)
        base = {f"d{i}": 0 for i in range(8)}
        base.update({f"c{j}": 0 for j in range(5)})
        base["en"] = 1
        for flip in range(5):
            corrupted = dict(base)
            corrupted[f"c{flip}"] = 1
            out = circuit.evaluate_outputs(corrupted)
            assert sum(out[f"q{i}"] << i for i in range(8)) == 0, flip

    def test_check_bits_capacity_validated(self):
        with pytest.raises(ValueError):
            sec_circuit(data_bits=300, check_bits=4)


class TestFaninNetwork:
    def test_balanced_and_chain_same_function(self):
        bal = fanin_network(10, 12, 4, 6, seed=5, balanced=True)
        chain = fanin_network(10, 12, 4, 6, seed=5, balanced=False)
        assert bal.num_gates == chain.num_gates
        rng = np.random.default_rng(2)
        for _ in range(40):
            assignment = {f"pi{i}": int(rng.integers(2)) for i in range(10)}
            assert (bal.evaluate_outputs(assignment)
                    == chain.evaluate_outputs(assignment))

    def test_balanced_is_shallower(self):
        bal = fanin_network(10, 12, 4, 8, seed=5, balanced=True)
        chain = fanin_network(10, 12, 4, 8, seed=5, balanced=False)
        assert bal.depth < chain.depth
