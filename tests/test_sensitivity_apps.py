"""Tests for sensitivity analysis and the Sec. 5.1 applications."""

import pytest

from repro.apps import (
    GateSerModel,
    asymmetric_targets,
    estimate_ser,
    hardening_sweep,
    selective_tmr,
    uniform_ser_model,
)
from repro.circuits import parity_tree, ripple_carry_adder
from repro.reliability import (
    ObservabilityModel,
    SinglePassAnalyzer,
    asymmetry_report,
    epsilon_map,
    rank_critical_gates,
    single_pass_sensitivities,
)


class TestSensitivity:
    def test_epsilon_map(self, tree_circuit):
        m = epsilon_map(tree_circuit, 0.1)
        assert set(m) == set(tree_circuit.topological_gates())
        assert all(v == 0.1 for v in m.values())

    def test_matches_closed_form_gradient_at_small_eps(self, tree_circuit):
        # The closed form is first-order exact, so its gradient matches the
        # (tree-exact) single-pass sensitivity in the eps -> 0 limit.
        analyzer = SinglePassAnalyzer(tree_circuit)
        sens = single_pass_sensitivities(analyzer, 1e-4, step=1e-6)
        model = ObservabilityModel(tree_circuit)
        grad = model.gradient(1e-4)
        for gate in tree_circuit.topological_gates():
            assert sens[gate] == pytest.approx(grad[gate], rel=0.02,
                                               abs=1e-4)

    def test_rank_critical_gates(self, tree_circuit):
        analyzer = SinglePassAnalyzer(tree_circuit)
        ranked = rank_critical_gates(analyzer, 0.05, top_k=3)
        assert len(ranked) == 3
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)
        # The output gate is maximally observable, hence most critical.
        assert ranked[0][0] == "top"

    def test_multi_output_mean_objective(self, full_adder_circuit):
        analyzer = SinglePassAnalyzer(full_adder_circuit)
        sens = single_pass_sensitivities(analyzer, 0.05)
        assert set(sens) == set(full_adder_circuit.topological_gates())

    def test_gates_subset(self, tree_circuit):
        analyzer = SinglePassAnalyzer(tree_circuit)
        sens = single_pass_sensitivities(analyzer, 0.05, gates=["top"])
        assert list(sens) == ["top"]

    def test_asymmetry_report(self, full_adder_circuit):
        analyzer = SinglePassAnalyzer(full_adder_circuit)
        report = asymmetry_report(analyzer, 0.1)
        assert set(report) == set(full_adder_circuit.topological_gates())
        for p01, p10 in report.values():
            assert 0 <= p01 <= 1 and 0 <= p10 <= 1


class TestSer:
    def test_per_cycle_epsilon_conversion(self):
        model = GateSerModel(upset_rate_per_sec=100.0)
        assert model.per_cycle_epsilon(1e9) == pytest.approx(1e-7)
        assert GateSerModel(1e12).per_cycle_epsilon(1.0) == 0.5  # clipped

    def test_report_scales_linearly_in_rate(self):
        circuit = parity_tree(4)
        low = estimate_ser(circuit, uniform_ser_model(circuit, 1e-12))
        high = estimate_ser(circuit, uniform_ser_model(circuit, 1e-10))
        out = circuit.outputs[0]
        ratio = (high.per_output_failure_probability[out]
                 / low.per_output_failure_probability[out])
        assert ratio == pytest.approx(100, rel=1e-3)

    def test_fit_consistency(self):
        circuit = parity_tree(4)
        report = estimate_ser(circuit, uniform_ser_model(circuit, 1e-10),
                              clock_hz=2e9)
        out = circuit.outputs[0]
        p = report.per_output_failure_probability[out]
        assert report.per_output_fit[out] == pytest.approx(
            p * 2e9 * 3600 * 1e9)

    def test_contributions_sum_close_to_total(self):
        # First-order: sum of contributions ~ delta for tiny eps.
        circuit = parity_tree(8)
        report = estimate_ser(circuit, uniform_ser_model(circuit, 1e-12))
        total = sum(report.gate_contributions.values())
        out = circuit.outputs[0]
        assert total == pytest.approx(
            report.per_output_failure_probability[out], rel=1e-3)

    def test_default_rate_for_missing_gates(self):
        circuit = parity_tree(4)
        report = estimate_ser(circuit, {}, default_rate=1e-12)
        out = circuit.outputs[0]
        assert report.per_output_failure_probability[out] > 0


class TestRedundancy:
    def test_selective_tmr_with_hardened_voters_improves(self):
        circuit = ripple_carry_adder(4)
        outcome = selective_tmr(circuit, 0.02, top_k=4,
                                voter_eps=0.002, evaluate="monte_carlo",
                                mc_patterns=1 << 15)
        assert outcome.mean_improvement > 0
        assert outcome.gate_overhead == 24
        assert len(outcome.hardened_gates) == 4

    def test_noisy_voters_hurt(self):
        # Honest physics: TMR with voters as noisy as the logic is a loss.
        circuit = ripple_carry_adder(3)
        outcome = selective_tmr(circuit, 0.05, top_k=2,
                                voter_eps=None, evaluate="monte_carlo",
                                mc_patterns=1 << 15)
        assert outcome.mean_improvement < 0.05

    def test_invalid_evaluate_rejected(self, tree_circuit):
        with pytest.raises(ValueError):
            selective_tmr(tree_circuit, 0.05, top_k=1, evaluate="vibes")

    def test_hardening_sweep_budgets(self):
        circuit = ripple_carry_adder(2)
        sweep = hardening_sweep(circuit, 0.02, [1, 2], voter_eps=0.002,
                                evaluate="monte_carlo")
        assert [k for k, _ in sweep] == [1, 2]
        assert sweep[1][1].gate_overhead > sweep[0][1].gate_overhead

    def test_shared_workspace_is_never_mutated(self):
        from repro.incremental import CircuitWorkspace

        circuit = ripple_carry_adder(2)
        ws = CircuitWorkspace(circuit, eps=0.02, seed=0)
        solo = selective_tmr(circuit, 0.02, top_k=2, voter_eps=0.002)
        shared = selective_tmr(circuit, 0.02, top_k=2, voter_eps=0.002,
                               workspace=ws)
        # Same ranking, same hardened circuit, same single-pass numbers —
        # sharing a baseline workspace changes cost, not results.
        assert shared.hardened_gates == solo.hardened_gates
        assert shared.gate_overhead == solo.gate_overhead
        for out, value in solo.hardened_delta.items():
            assert shared.hardened_delta[out] == pytest.approx(value,
                                                               abs=1e-12)
        # The candidate was evaluated on a fork; the baseline stays clean.
        assert ws.edit_log == []
        assert ws.circuit.num_gates == circuit.num_gates

    def test_asymmetric_targets_directions(self, full_adder_circuit):
        up = asymmetric_targets(full_adder_circuit, 0.1, "0to1", top_k=3)
        down = asymmetric_targets(full_adder_circuit, 0.1, "1to0", top_k=3)
        assert len(up) == 3 and len(down) == 3
        with pytest.raises(ValueError):
            asymmetric_targets(full_adder_circuit, 0.1, "sideways")
