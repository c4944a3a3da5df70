"""Correlated compiled-kernel parity: vectorized Sec. 4.1 vs the scalar oracle.

The compiled correlated plan (`CompiledCorrelatedPass`) lowers the
correlation engine's per-pair coefficient state into an integer-indexed row
table and evaluates the corrected pass with a trailing eps axis.  These
tests pin it to the scalar correlated engine (``compiled="off"``) to
<= 1e-10 — per output, per internal node, and per coefficient — on every
catalog benchmark (with the level-gap locality cap on the big ones, exactly
as the scalar engine would be run there) plus generated random circuits,
and prove the scalar oracle fallback still works when forced or when the
pair budget refuses a plan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import get_benchmark, list_benchmarks, random_circuit
from repro.probability.error_propagation import ErrorProbability
from repro.probability.weights import compute_weights
from repro.reliability import CompiledCorrelatedPass, SinglePassAnalyzer

TOL = 1e-10
EPS_POINTS = [0.0, 0.004, 0.05, 0.21]

#: Level-gap cap applied to circuits above this node count, mirroring how
#: the scalar engine is deployed on them (full expansion on e.g. i10 takes
#: half a minute per point either way; the parity question is identical).
BIG_CIRCUIT_NODES = 300
LEVEL_GAP = 6


def _gap_for(circuit):
    big = len(circuit.topological_order()) > BIG_CIRCUIT_NODES
    return LEVEL_GAP if big else None


def _pair(circuit, weights, **kwargs):
    """(scalar oracle, compiled) correlated analyzers sharing weights."""
    gap = kwargs.pop("max_correlation_level_gap", _gap_for(circuit))
    scalar = SinglePassAnalyzer(circuit, weights=weights,
                                use_correlation=True, compiled="off",
                                max_correlation_level_gap=gap, **kwargs)
    fast = SinglePassAnalyzer(circuit, weights=weights,
                              use_correlation=True,
                              max_correlation_level_gap=gap, **kwargs)
    assert not scalar.uses_compiled
    assert fast.uses_compiled
    return scalar, fast


def _assert_sweep_matches(scalar, sweep, eps_list, eps10_list=None):
    """Every sweep column must match an independent scalar correlated run."""
    for j, eps in enumerate(eps_list):
        ref = scalar.run(eps, None if eps10_list is None else eps10_list[j])
        for o, out in enumerate(sweep.outputs):
            assert abs(ref.per_output[out] - sweep.per_output[o, j]) <= TOL
        for i, node in enumerate(sweep.node_names):
            assert abs(ref.node_errors[node].p01 - sweep.p01[i, j]) <= TOL
            assert abs(ref.node_errors[node].p10 - sweep.p10[i, j]) <= TOL


@pytest.mark.parametrize("name", list_benchmarks())
class TestCatalogCorrelatedParity:
    """<= 1e-10 vs the scalar correlated engine on all 18 catalog circuits."""

    @pytest.fixture()
    def weights(self, name):
        return compute_weights(get_benchmark(name), method="sampled",
                               n_patterns=1 << 10, seed=0)

    def test_correlated_sweep_parity(self, name, weights):
        circuit = get_benchmark(name)
        scalar, fast = _pair(circuit, weights)
        eps_points = [0.01, 0.18]
        sweep = fast.sweep(eps_points)
        assert sweep.used_correlation is True
        _assert_sweep_matches(scalar, sweep, eps_points)

    def test_coefficient_parity(self, name, weights):
        """Every compiled coefficient equals the scalar engine's answer."""
        circuit = get_benchmark(name)
        scalar, fast = _pair(circuit, weights)
        eps = 0.11
        sweep = fast.sweep([eps])
        engine = scalar.run(eps).correlation_engine
        keys = sweep.correlation_pair_keys
        assert len(keys) == int(sweep.correlation_pairs[0])
        # Cap the per-circuit check so the slow scalar expansions on the
        # big benchmarks don't dominate the suite; keys are sorted, and the
        # stride samples the whole range.
        stride = max(1, len(keys) // 200)
        for i in range(0, len(keys), stride):
            a, ea, b, eb = keys[i]
            assert abs(engine(a, ea, b, eb)
                       - sweep.correlation_coefficients[i, 0]) <= TOL


class TestCorrelatedVariants:
    @pytest.fixture(scope="class")
    def c432(self):
        return get_benchmark("c432")

    @pytest.fixture(scope="class")
    def weights(self, c432):
        return compute_weights(c432, method="sampled",
                               n_patterns=1 << 10, seed=0)

    def test_asymmetric_eps10(self, c432, weights):
        scalar, fast = _pair(c432, weights)
        eps10 = [0.3, 0.1, 0.0, 0.02]
        sweep = fast.sweep(EPS_POINTS, eps10)
        _assert_sweep_matches(scalar, sweep, EPS_POINTS, eps10)

    def test_per_gate_eps_map(self, c432, weights):
        scalar, fast = _pair(c432, weights)
        gates = c432.topological_gates()
        maps = [{g: 0.002 * ((i + shift) % 9) for i, g in enumerate(gates)}
                for shift in (0, 4)]
        sweep = fast.sweep(maps)
        _assert_sweep_matches(scalar, sweep, maps)

    def test_input_errors_parity(self, c432, weights):
        errs = {c432.inputs[0]: ErrorProbability(p01=0.07, p10=0.02),
                c432.inputs[3]: ErrorProbability(p01=0.0, p10=0.11)}
        scalar, fast = _pair(c432, weights, input_errors=errs)
        sweep = fast.sweep([0.01, 0.12])
        _assert_sweep_matches(scalar, sweep, [0.01, 0.12])

    def test_level_gap_parity(self, c432, weights):
        scalar, fast = _pair(c432, weights, max_correlation_level_gap=3)
        sweep = fast.sweep([0.05, 0.25])
        _assert_sweep_matches(scalar, sweep, [0.05, 0.25])


class TestPropertyCorrelatedParity:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           eps=st.floats(0.0, 0.5),
           eps10=st.floats(0.0, 0.5))
    def test_random_circuits(self, seed, eps, eps10):
        circuit = random_circuit(n_inputs=5, n_gates=14, n_outputs=2,
                                 seed=seed)
        weights = compute_weights(circuit, method="exhaustive")
        scalar, fast = _pair(circuit, weights)
        rng = np.random.default_rng(seed)
        gates = circuit.topological_gates()
        eps_map = {g: float(p) for g, p in
                   zip(gates, rng.uniform(0.0, 0.5, len(gates)))}
        specs = [eps, eps_map]
        eps10_specs = [eps10, eps10]
        sweep = fast.sweep(specs, eps10_specs)
        _assert_sweep_matches(scalar, sweep, specs, eps10_specs)


class TestScalarOracleFallback:
    """The scalar engine stays available: forced off, or budget-refused."""

    def test_forced_oracle_matches_compiled(self, reconvergent_circuit):
        weights = compute_weights(reconvergent_circuit, method="exhaustive")
        scalar, fast = _pair(reconvergent_circuit, weights)
        for eps in (0.02, 0.3):
            ref = scalar.run(eps)
            res = fast.run(eps)
            assert ref.used_correlation and res.used_correlation
            assert ref.correlation_engine is not None
            for out in ref.per_output:
                assert abs(ref.per_output[out] - res.per_output[out]) <= TOL

    def test_budget_refusal_falls_back_to_scalar(self, reconvergent_circuit):
        """A plan over budget refuses; the analyzer degrades per-query."""
        analyzer = SinglePassAnalyzer(reconvergent_circuit,
                                      weight_method="exhaustive",
                                      use_correlation=True,
                                      max_correlation_pairs=2)
        assert not analyzer.uses_compiled  # CompiledPassUnsupported inside
        result = analyzer.run(0.1)
        assert result.correlation_engine.budget_exceeded
        sweep = analyzer.sweep([0.05, 0.1])
        assert sweep.per_output.shape[1] == 2

    def test_compiled_plan_refuses_over_budget(self, reconvergent_circuit):
        from repro.reliability import CompiledPassUnsupported
        weights = compute_weights(reconvergent_circuit, method="exhaustive")
        with pytest.raises(CompiledPassUnsupported, match="budget"):
            CompiledCorrelatedPass(reconvergent_circuit, weights,
                                   max_pairs=2)


class TestPairBudgetBoundary:
    """Refuse iff the closure has more than ``max_pairs`` rows, and refuse
    before lowering anything."""

    @pytest.fixture(scope="class")
    def b9(self):
        circuit = get_benchmark("b9")
        return circuit, compute_weights(circuit, method="sampled",
                                        n_patterns=1 << 10, seed=0)

    def test_budget_equal_to_closure_compiles(self, b9):
        circuit, weights = b9
        full = CompiledCorrelatedPass(circuit, weights)
        exact = CompiledCorrelatedPass(circuit, weights,
                                       max_pairs=full.n_pair_rows)
        assert exact.pair_keys == full.pair_keys
        assert exact.num_corr_groups == full.num_corr_groups

    def test_budget_below_closure_refuses_before_lowering(self, b9,
                                                         monkeypatch):
        from repro.reliability import CompiledPassUnsupported
        circuit, weights = b9
        closure = CompiledCorrelatedPass(circuit, weights).n_pair_rows

        def no_lowering(*args, **kwargs):
            raise AssertionError("a refused plan must not be lowered")

        monkeypatch.setattr(CompiledCorrelatedPass, "_lower", no_lowering)
        with pytest.raises(CompiledPassUnsupported,
                           match=rf"budget \({closure - 1}\)"):
            CompiledCorrelatedPass(circuit, weights, max_pairs=closure - 1)


class TestCorrelationPlanCache:
    def test_cache_roundtrip_identical_results(self, reconvergent_circuit,
                                               tmp_path):
        weights = compute_weights(reconvergent_circuit, method="exhaustive")
        cache = str(tmp_path / "plans")
        first = CompiledCorrelatedPass(reconvergent_circuit, weights,
                                       cache_dir=cache)
        again = CompiledCorrelatedPass(reconvergent_circuit, weights,
                                       cache_dir=cache)
        assert again.pair_keys == first.pair_keys
        a = first.run_sweep(EPS_POINTS)
        b = again.run_sweep(EPS_POINTS)
        assert np.array_equal(a.per_output, b.per_output)
        assert np.array_equal(a.correlation_coefficients,
                              b.correlation_coefficients)

    def test_unsupported_marker_cached(self, reconvergent_circuit, tmp_path):
        from repro.reliability import CompiledPassUnsupported
        weights = compute_weights(reconvergent_circuit, method="exhaustive")
        cache = str(tmp_path / "plans")
        for expected in ("budget", "cached plan"):
            with pytest.raises(CompiledPassUnsupported, match=expected):
                CompiledCorrelatedPass(reconvergent_circuit, weights,
                                       max_pairs=2, cache_dir=cache)

    def test_analyzer_threads_cache_dir(self, reconvergent_circuit,
                                        tmp_path):
        import os
        cache = str(tmp_path / "plans")
        analyzer = SinglePassAnalyzer(reconvergent_circuit,
                                      weight_method="exhaustive",
                                      use_correlation=True,
                                      weights_cache_dir=cache)
        assert analyzer.uses_compiled
        assert any(e.startswith("corrplan-") for e in os.listdir(cache))
