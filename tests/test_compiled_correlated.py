"""Correlated compiled-kernel parity: vectorized Sec. 4.1 vs the scalar oracle.

The compiled correlated plan (`CompiledCorrelatedPass`) lowers the
correlation engine's per-pair coefficient state into an integer-indexed row
table and evaluates the corrected pass with a trailing eps axis.  These
tests pin it to the scalar correlated engine (``compiled="off"``) to
<= 1e-10 — per output, per internal node, and per coefficient — on every
catalog benchmark (with the level-gap locality cap on the big ones, exactly
as the scalar engine would be run there) plus generated random circuits,
and prove the scalar oracle fallback still works when forced or when the
pair budget is too small for even the level-gap-0 closure.  A closure over
the budget at the requested cap is fitted to the widest level gap that
fits (``TestPlanFit``).
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
    """The scalar engine stays available: forced off, or budget-refused
    (a budget below the level-gap-0 closure)."""

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
        """A budget below even the gap-0 closure (4 rows here) refuses;
        the analyzer degrades per-query.  One row more compiles at gap 0."""
        weights = compute_weights(reconvergent_circuit, method="exhaustive")
        gap0 = CompiledCorrelatedPass(reconvergent_circuit, weights,
                                      max_level_gap=0).n_pair_rows
        analyzer = SinglePassAnalyzer(reconvergent_circuit, weights=weights,
                                      use_correlation=True,
                                      max_correlation_pairs=gap0 - 1)
        assert not analyzer.uses_compiled  # CompiledPassUnsupported inside
        assert "budget" in analyzer.plan_unsupported_reason
        result = analyzer.run(0.1)
        assert result.correlation_engine.budget_exceeded
        sweep = analyzer.sweep([0.05, 0.1])
        assert sweep.per_output.shape[1] == 2
        fitted = SinglePassAnalyzer(reconvergent_circuit, weights=weights,
                                    use_correlation=True,
                                    max_correlation_pairs=gap0)
        assert fitted.uses_compiled and fitted.plan.level_gap == 0

    def test_compiled_plan_refuses_over_budget(self, reconvergent_circuit):
        from repro.reliability import CompiledPassUnsupported
        weights = compute_weights(reconvergent_circuit, method="exhaustive")
        with pytest.raises(CompiledPassUnsupported, match="budget"):
            CompiledCorrelatedPass(reconvergent_circuit, weights,
                                   max_pairs=2)


class TestPairBudgetBoundary:
    """Fit iff the closure has more than ``max_pairs`` rows, refuse iff
    the gap-0 closure does too, and lower only the plan that fits."""

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
        """Below the gap-0 closure nothing is lowered; one row below the
        full closure lowers once, at the fitted gap."""
        from repro.reliability import CompiledPassUnsupported
        circuit, weights = b9
        closure = CompiledCorrelatedPass(circuit, weights).n_pair_rows
        gap0 = CompiledCorrelatedPass(circuit, weights,
                                      max_level_gap=0).n_pair_rows
        lower = CompiledCorrelatedPass._lower
        lowered = []

        def counted(plan, *args, **kwargs):
            lowered.append(plan.n_rows)
            return lower(plan, *args, **kwargs)

        monkeypatch.setattr(CompiledCorrelatedPass, "_lower", counted)
        with pytest.raises(CompiledPassUnsupported,
                           match=rf"budget \({gap0 - 1}\)"):
            CompiledCorrelatedPass(circuit, weights, max_pairs=gap0 - 1)
        assert lowered == []
        fitted = CompiledCorrelatedPass(circuit, weights,
                                        max_pairs=closure - 1)
        assert fitted.level_gap is not None
        assert fitted.n_pair_rows <= closure - 1
        assert lowered == [fitted.n_rows]


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

    def test_fitted_gap_round_trips(self, reconvergent_circuit, tmp_path,
                                    monkeypatch):
        """A fitted plan's entry carries its gap: the second compile seeds
        from it without a fit and gives the same plan."""
        weights = compute_weights(reconvergent_circuit, method="exhaustive")
        cache = str(tmp_path / "plans")
        first = CompiledCorrelatedPass(reconvergent_circuit, weights,
                                       max_pairs=4, cache_dir=cache)
        assert first.level_gap == 0
        monkeypatch.setattr(CompiledCorrelatedPass, "_fit", _no_fit)
        again = CompiledCorrelatedPass(reconvergent_circuit, weights,
                                       max_pairs=4, cache_dir=cache)
        assert again.level_gap == 0
        assert again.pair_keys == first.pair_keys
        assert np.array_equal(first.run_sweep(EPS_POINTS).per_output,
                              again.run_sweep(EPS_POINTS).per_output)

    def test_old_unsupported_marker_is_refitted(self, reconvergent_circuit,
                                                tmp_path, monkeypatch):
        """A version-1 entry (a budget refusal from before plans were
        fitted) is a miss: the plan fits and writes a fresh entry."""
        from repro import store
        from repro.circuit import structural_hash
        weights = compute_weights(reconvergent_circuit, method="exhaustive")
        cache = str(tmp_path / "plans")
        plan_key = {"circuit_hash": structural_hash(reconvergent_circuit),
                    "max_level_gap": None, "max_pairs": 4}
        with monkeypatch.context() as m:
            m.setitem(store.KINDS, "corrplan",
                      store.KINDS["corrplan"]._replace(version=1))
            store.save(cache, "corrplan", plan_key,
                       {"unsupported": np.asarray(True),
                        "pairs": np.empty((0, 4), dtype=np.int64)})
        plan = CompiledCorrelatedPass(reconvergent_circuit, weights,
                                      max_pairs=4, cache_dir=cache)
        assert plan.level_gap == 0
        monkeypatch.setattr(CompiledCorrelatedPass, "_fit", _no_fit)
        again = CompiledCorrelatedPass(reconvergent_circuit, weights,
                                       max_pairs=4, cache_dir=cache)
        assert again.pair_keys == plan.pair_keys

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


def _no_fit(*args):
    raise AssertionError("a cached plan must not be fitted again")


class TestPlanFit:
    """A closure over the pair budget is fitted to the widest level gap
    that fits: c1908's full closure is ~190k rows, the budget 50k."""

    BUDGET = 50_000

    @pytest.fixture(scope="class")
    def c1908(self):
        circuit = get_benchmark("c1908")
        return circuit, compute_weights(circuit, method="sampled",
                                        n_patterns=1 << 10, seed=0)

    @pytest.fixture(scope="class")
    def fitted(self, c1908):
        from repro import obs
        circuit, weights = c1908
        obs.reset()
        obs.enable()
        try:
            plan = CompiledCorrelatedPass(circuit, weights,
                                          max_pairs=self.BUDGET)
            (span,) = obs.get_tracer().find(
                "compiled_pass.compile_correlated")
        finally:
            obs.disable()
            obs.reset()
        return plan, span

    def test_fitted_plan_equals_explicit_gap(self, c1908, fitted):
        circuit, weights = c1908
        plan, span = fitted
        gap = plan.level_gap
        assert plan.max_level_gap is None and gap is not None
        assert span.attrs["level_gap"] == gap
        explicit = CompiledCorrelatedPass(circuit, weights,
                                          max_level_gap=gap)
        assert explicit.level_gap == gap
        assert plan.pair_keys == explicit.pair_keys
        assert plan.num_corr_groups == explicit.num_corr_groups
        specs = [0.0, 0.01, 0.05, 0.2]
        a, b = plan.run_sweep(specs), explicit.run_sweep(specs)
        for field in ("per_output", "p01", "p10",
                      "correlation_coefficients"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_next_gap_is_over_budget(self, c1908, fitted):
        circuit, weights = c1908
        plan, _ = fitted
        assert plan.n_pair_rows <= self.BUDGET
        wider = CompiledCorrelatedPass(circuit, weights,
                                       max_level_gap=plan.level_gap + 1)
        assert wider.n_pair_rows > self.BUDGET

    def test_fit_stays_below_the_callers_cap(self, c1908, fitted):
        circuit, weights = c1908
        gap = fitted[0].level_gap
        capped = CompiledCorrelatedPass(circuit, weights,
                                        max_pairs=self.BUDGET,
                                        max_level_gap=gap + 3)
        assert capped.max_level_gap == gap + 3
        assert capped.level_gap == gap
        assert capped.pair_keys == fitted[0].pair_keys

    def test_seeded_engine_uses_the_fitted_gap(self, c1908, fitted):
        """Lazy pairs of the consolidation engine stay inside the fitted
        closure: the engine classifies under the plan's gap."""
        circuit, weights = c1908
        analyzer = SinglePassAnalyzer(circuit, weights=weights,
                                      use_correlation=True,
                                      max_correlation_pairs=self.BUDGET)
        assert analyzer.plan.level_gap == fitted[0].level_gap
        engine = analyzer.run(0.05).correlation_engine
        assert engine.max_level_gap == fitted[0].level_gap


class TestLazyEngineSeeding:
    """A compiled run builds its correlation engine only when read."""

    def test_run_builds_no_engine_until_read(self, monkeypatch):
        circuit = get_benchmark("c432")
        weights = compute_weights(circuit, method="sampled",
                                  n_patterns=1 << 10, seed=0)
        analyzer = SinglePassAnalyzer(circuit, weights=weights)
        seed = SinglePassAnalyzer._seed_engine
        built = []

        def spy(self, *args):
            built.append(args[3])  # (plan, sweep, result, eps, eps10)
            return seed(self, *args)

        monkeypatch.setattr(SinglePassAnalyzer, "_seed_engine", spy)
        first = analyzer.run(0.01)
        analyzer.run(0.2)
        assert built == []
        engine = first.correlation_engine
        assert built == [0.01]
        assert first.correlation_engine is engine
        assert built == [0.01]

    def test_consolidation_reads_the_runs_own_engine(self):
        """An engine read after later runs still answers for its own
        eps: consolidation equals a fresh analyzer's, bit for bit."""
        from repro.reliability.consolidated import ConsolidatedAnalyzer
        circuit = get_benchmark("c432")
        weights = compute_weights(circuit, method="sampled",
                                  n_patterns=1 << 10, seed=0)
        analyzer = SinglePassAnalyzer(circuit, weights=weights)
        early = analyzer.run(0.01)
        analyzer.run(0.3)
        fresh = SinglePassAnalyzer(circuit, weights=weights).run(0.01)
        cons = ConsolidatedAnalyzer(circuit, analyzer=analyzer,
                                    n_patterns=1 << 10)
        late = cons.consolidate(early)
        ref = cons.consolidate(fresh)
        assert late.pairwise_joint_error == ref.pairwise_joint_error
        assert late.any_output == ref.any_output
