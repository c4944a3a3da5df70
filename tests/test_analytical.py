"""Tests for the analytical baselines (von Neumann, compositional rules)."""

import math

import numpy as np
import pytest

from repro.circuits import get_benchmark, parity_tree
from repro.reliability import (
    SinglePassAnalyzer,
    compositional_delta,
    exhaustive_exact_reliability,
    multiplexing_trajectory,
    nand_excitation_step,
    nand_fixed_points,
    von_neumann_threshold,
)
from repro.sim import monte_carlo_reliability


class TestVonNeumann:
    def test_noise_free_nand_step(self):
        assert nand_excitation_step(1.0, 1.0, 0.0) == 0.0
        assert nand_excitation_step(0.0, 0.0, 0.0) == 1.0
        assert nand_excitation_step(1.0, 0.0, 0.0) == 1.0

    def test_fully_noisy_step_is_half(self):
        for x in (0.0, 0.3, 1.0):
            assert nand_excitation_step(x, x, 0.5) == pytest.approx(0.5)

    def test_fixed_points_satisfy_equation(self):
        for eps in (0.0, 0.05, 0.2):
            for x in nand_fixed_points(eps):
                assert nand_excitation_step(x, x, eps) == pytest.approx(x)

    def test_trajectory_oscillates_below_threshold(self):
        traj = multiplexing_trajectory(0.99, 0.01, 50)
        # NAND is inverting: consecutive values alternate high/low.
        assert traj[-1] != pytest.approx(traj[-2], abs=0.05)

    def test_trajectory_collapses_above_threshold(self):
        traj = multiplexing_trajectory(0.99, 0.2, 400)
        assert traj[-1] == pytest.approx(traj[-2], abs=1e-3)

    def test_threshold_matches_analytic_value(self):
        analytic = (3.0 - math.sqrt(7.0)) / 4.0
        numeric = von_neumann_threshold()
        assert numeric == pytest.approx(analytic, abs=1e-9)


class TestCompositional:
    def test_exact_on_uniform_symmetric_cases(self):
        # Parity tree: signals are uniform and errors symmetric, so the
        # compositional simplification happens to be exact here.
        circuit = parity_tree(8)
        eps = 0.07
        comp = compositional_delta(circuit, eps)
        exact = exhaustive_exact_reliability(circuit, eps)
        out = circuit.outputs[0]
        assert comp[out] == pytest.approx(exact.per_output[out], abs=1e-9)

    def test_substantial_error_on_real_logic(self):
        """The paper's Sec. 2 claim: compositional rules lose accuracy on
        irregular multi-level logic while the single pass does not."""
        circuit = get_benchmark("cu")
        eps = 0.05
        comp = compositional_delta(circuit, eps)
        sp = SinglePassAnalyzer(circuit).run(eps).per_output
        mc = monte_carlo_reliability(circuit, eps, n_patterns=1 << 16,
                                     seed=2).per_output
        err_comp = np.mean([abs(comp[o] - mc[o]) / max(mc[o], 1e-9)
                            for o in circuit.outputs])
        err_sp = np.mean([abs(sp[o] - mc[o]) / max(mc[o], 1e-9)
                          for o in circuit.outputs])
        assert err_comp > 5 * err_sp

    def test_all_outputs_reported(self, full_adder_circuit):
        comp = compositional_delta(full_adder_circuit, 0.1)
        assert set(comp) == {"s", "cout"}
        assert all(0 <= v <= 1 for v in comp.values())

    def test_zero_eps(self, full_adder_circuit):
        comp = compositional_delta(full_adder_circuit, 0.0)
        assert all(v == 0.0 for v in comp.values())

    def test_eps_validated(self, full_adder_circuit):
        with pytest.raises(ValueError):
            compositional_delta(full_adder_circuit, 0.9)
