"""Compiled-kernel parity: the vectorized sweep must match the scalar pass.

The compiled plan (`repro.reliability.compiled_pass`) re-implements the
Sec. 4 independence propagation as batched tensor ops with a trailing eps
axis.  These tests pin it to the scalar reference path (``compiled="off"``)
to <= 1e-12 — per output *and* per internal node — on every catalog
benchmark, across symmetric eps, asymmetric ``eps10``, per-gate eps maps
and non-uniform input distributions, plus arbitrary generated circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import get_benchmark, list_benchmarks, random_circuit
from repro.probability.error_propagation import ErrorProbability
from repro.probability.weights import compute_weights
from repro.reliability import (
    CompiledSinglePass,
    SinglePassAnalyzer,
    SinglePassResult,
    SweepResult,
)

TOL = 1e-12
EPS_POINTS = [0.0, 0.004, 0.05, 0.21]


def _pair(circuit, weights, **kwargs):
    """(scalar reference, compiled) analyzers sharing one WeightData."""
    scalar = SinglePassAnalyzer(circuit, weights=weights,
                                use_correlation=False, compiled="off",
                                **kwargs)
    fast = SinglePassAnalyzer(circuit, weights=weights,
                              use_correlation=False, **kwargs)
    assert not scalar.uses_compiled
    assert fast.uses_compiled
    return scalar, fast


def _assert_sweep_matches(scalar, sweep, eps_list, eps10_list=None):
    """Every sweep column must match an independent scalar run."""
    for j, eps in enumerate(eps_list):
        ref = scalar.run(eps, None if eps10_list is None else eps10_list[j])
        for o, out in enumerate(sweep.outputs):
            assert abs(ref.per_output[out] - sweep.per_output[o, j]) <= TOL
        for i, node in enumerate(sweep.node_names):
            assert abs(ref.node_errors[node].p01 - sweep.p01[i, j]) <= TOL
            assert abs(ref.node_errors[node].p10 - sweep.p10[i, j]) <= TOL


@pytest.mark.parametrize("name", list_benchmarks())
class TestCatalogParity:
    @pytest.fixture()
    def weights(self, name):
        return compute_weights(get_benchmark(name), method="sampled",
                               n_patterns=1 << 10, seed=0)

    def test_symmetric_sweep(self, name, weights):
        circuit = get_benchmark(name)
        scalar, fast = _pair(circuit, weights)
        sweep = fast.sweep(EPS_POINTS)
        assert sweep.n_points == len(EPS_POINTS)
        _assert_sweep_matches(scalar, sweep, EPS_POINTS)

    def test_asymmetric_eps10(self, name, weights):
        circuit = get_benchmark(name)
        scalar, fast = _pair(circuit, weights)
        eps10 = [0.3, 0.1, 0.0, 0.02]
        sweep = fast.sweep(EPS_POINTS, eps10)
        _assert_sweep_matches(scalar, sweep, EPS_POINTS, eps10)

    def test_per_gate_eps_map(self, name, weights):
        circuit = get_benchmark(name)
        scalar, fast = _pair(circuit, weights)
        gates = circuit.topological_gates()
        maps = [{g: 0.002 * ((i + shift) % 9) for i, g in enumerate(gates)}
                for shift in (0, 4)]
        sweep = fast.sweep(maps)
        _assert_sweep_matches(scalar, sweep, maps)

    def test_non_uniform_input_probs(self, name):
        circuit = get_benchmark(name)
        probs = {pi: 0.2 + 0.6 * (i % 3) / 2
                 for i, pi in enumerate(circuit.inputs)}
        weights = compute_weights(circuit, method="sampled",
                                  n_patterns=1 << 10, seed=1,
                                  input_probs=probs)
        scalar, fast = _pair(circuit, weights)
        sweep = fast.sweep([0.01, 0.12], [0.07, 0.0])
        _assert_sweep_matches(scalar, sweep, [0.01, 0.12], [0.07, 0.0])


class TestPropertyParity:
    @settings(max_examples=25, deadline=None)
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


class TestDispatchAndApi:
    @pytest.fixture(scope="class")
    def c17(self):
        return get_benchmark("c17")

    @pytest.fixture(scope="class")
    def weights(self, c17):
        return compute_weights(c17, method="exhaustive")

    def test_run_dispatches_to_kernel(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        result = fast.run(0.05)
        assert isinstance(result, SinglePassResult)
        assert result.used_correlation is False
        assert result.correlation_pairs == 0
        ref = SinglePassAnalyzer(c17, weights=weights, use_correlation=False,
                                 compiled="off").run(0.05)
        for out in ref.per_output:
            assert abs(ref.per_output[out] - result.per_output[out]) <= TOL

    def test_correlated_analyzer_dispatches_compiled(self, c17, weights):
        corr = SinglePassAnalyzer(c17, weights=weights, use_correlation=True)
        assert corr.uses_compiled
        result = corr.run(0.05)
        assert result.used_correlation is True
        assert result.correlation_pairs > 0
        # Consolidation compatibility: the compiled run hands back a
        # seeded engine that answers every query like a scalar run's (the
        # scalar memo also holds trivially-1.0 pairs the compiled closure
        # prunes; those recompute lazily on the seeded engine).
        ref = SinglePassAnalyzer(c17, weights=weights, use_correlation=True,
                                 compiled="off").run(0.05)
        seeded = result.correlation_engine
        for (a, ea, b, eb), value in \
                ref.correlation_engine.coefficient_items():
            assert abs(seeded(a, ea, b, eb) - value) <= TOL

    def test_compiled_off_is_honored(self, c17, weights):
        off = SinglePassAnalyzer(c17, weights=weights, use_correlation=False,
                                 compiled="off")
        assert not off.uses_compiled

    def test_invalid_compiled_mode_rejected(self, c17, weights):
        with pytest.raises(ValueError, match="compiled"):
            SinglePassAnalyzer(c17, weights=weights, compiled="yes")

    def test_point_materializes_single_pass_result(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        sweep = fast.sweep([0.01, 0.2])
        point = sweep.point(1)
        assert isinstance(point, SinglePassResult)
        ref = fast.run(0.2)
        for out in ref.per_output:
            assert abs(point.per_output[out] - ref.per_output[out]) <= TOL
        assert point.node_errors.keys() == ref.node_errors.keys()

    def test_curve_matches_per_point_runs(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        eps = [0.0, 0.03, 0.4]
        curve = fast.curve(eps, output="22")
        for e in eps:
            assert abs(curve[e] - fast.run(e).delta("22")) <= TOL

    def test_curve_rejects_map_specs(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        sweep = fast.sweep([{g: 0.1 for g in c17.topological_gates()}])
        with pytest.raises(TypeError, match="scalar eps"):
            sweep.curve()

    def test_sweep_validation(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        with pytest.raises(ValueError, match="at least one"):
            fast.sweep([])
        with pytest.raises(ValueError, match="length"):
            fast.sweep([0.1, 0.2], [0.1])
        with pytest.raises(ValueError):
            fast.sweep([0.7])

    def test_input_errors_parity(self, c17, weights):
        errs = {c17.inputs[0]: ErrorProbability(p01=0.07, p10=0.02)}
        scalar = SinglePassAnalyzer(c17, weights=weights,
                                    use_correlation=False, compiled="off",
                                    input_errors=errs)
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False, input_errors=errs)
        _assert_sweep_matches(scalar, fast.sweep(EPS_POINTS), EPS_POINTS)

    def test_plan_reuse_across_sweeps(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        fast.sweep([0.1])
        plan = fast._plan
        assert plan is not None
        fast.sweep([0.2])
        assert fast._plan is plan

    def test_compiled_plan_direct_api(self, c17, weights):
        plan = CompiledSinglePass(c17, weights)
        sweep = plan.run_sweep([0.05])
        assert isinstance(sweep, SweepResult)
        one = plan.run(0.05)
        assert np.allclose(one.per_output, sweep.per_output)


class TestCorrelatedSweepDispatch:
    """Correlated sweeps run entirely on the compiled correlated kernel."""

    def test_tree_sweep_uses_kernel_and_matches(self, tree_circuit):
        weights = compute_weights(tree_circuit, method="exhaustive")
        corr = SinglePassAnalyzer(tree_circuit, weights=weights,
                                  use_correlation=True)
        assert corr.uses_compiled
        sweep = corr.sweep(EPS_POINTS)
        assert sweep.used_correlation is True
        # A fanout-free circuit has no structurally correlated pairs.
        assert not sweep.correlation_pairs.any()
        ref = SinglePassAnalyzer(tree_circuit, weights=weights,
                                 use_correlation=True, compiled="off")
        for j, eps in enumerate(EPS_POINTS):
            res = ref.run(eps)
            for o, out in enumerate(sweep.outputs):
                assert abs(res.per_output[out]
                           - sweep.per_output[o, j]) <= TOL

    def test_reconvergent_sweep_compiled_with_pairs(self,
                                                    reconvergent_circuit):
        corr = SinglePassAnalyzer(reconvergent_circuit,
                                  weight_method="exhaustive",
                                  use_correlation=True)
        sweep = corr.sweep([0.01, 0.1])
        assert corr.uses_compiled
        assert sweep.correlation_pairs.min() > 0
        assert len(sweep.correlation_pair_keys) == \
            sweep.correlation_pairs[0]
        ref = SinglePassAnalyzer(reconvergent_circuit,
                                 weight_method="exhaustive",
                                 use_correlation=True, compiled="off")
        for j, eps in enumerate([0.01, 0.1]):
            res = ref.run(eps)
            for o, out in enumerate(sweep.outputs):
                assert abs(res.per_output[out]
                           - sweep.per_output[o, j]) <= TOL


# -- dtype threading (no silent float64 up-cast) -------------------------
def test_float32_plan_stays_float32(reconvergent_circuit):
    analyzer = SinglePassAnalyzer(reconvergent_circuit,
                                  use_correlation=False,
                                  dtype=np.float32)
    plan = analyzer.plan
    assert plan is not None and plan.dtype == np.float32
    for level in plan.levels:
        for group in level:
            assert group.flip_mask.dtype == np.float32
            assert group.w_masked.dtype == np.float32
            assert group.w_side.dtype == np.float32
    sweep = plan.run_sweep([0.01, 0.05, 0.2])
    assert sweep.p01.dtype == np.float32
    assert sweep.p10.dtype == np.float32
    assert sweep.per_output.dtype == np.float32


def test_float32_parity_with_float64(reconvergent_circuit):
    eps = [0.01, 0.05, 0.2]
    s32 = SinglePassAnalyzer(reconvergent_circuit, use_correlation=False,
                             dtype=np.float32).sweep(eps)
    s64 = SinglePassAnalyzer(reconvergent_circuit,
                             use_correlation=False).sweep(eps)
    assert s64.p01.dtype == np.float64
    np.testing.assert_allclose(s32.p01, s64.p01, atol=1e-6)
    np.testing.assert_allclose(s32.per_output, s64.per_output, atol=1e-6)


def test_compiled_pass_dtype_parameter(full_adder_circuit):
    w = compute_weights(full_adder_circuit, method="exhaustive")
    plan = CompiledSinglePass(full_adder_circuit, w, dtype=np.float32)
    assert plan.dtype == np.float32
    plan64 = CompiledSinglePass(full_adder_circuit, w)
    assert plan64.dtype == np.float64


def test_points_share_the_sweeps_signal_prob(reconvergent_circuit):
    """Every materialized point hands out the sweep's one (read-only)
    ``signal_prob`` dict; the serialized view is what a copy gave."""
    w = compute_weights(reconvergent_circuit, method="exhaustive")
    sweep = CompiledSinglePass(reconvergent_circuit, w).run_sweep(
        EPS_POINTS)
    first, second = sweep.point(0), sweep.point(1)
    assert first.signal_prob is second.signal_prob
    assert first.signal_prob is sweep.signal_prob
    assert sweep.signal_prob is not w.signal_prob
    data = first.to_dict(include_nodes=True)
    assert data["signal_prob"] == {n: float(p)
                                   for n, p in w.signal_prob.items()}
    assert data["node_errors"] == {
        node: {"p01": float(sweep.p01[i, 0]), "p10": float(sweep.p10[i, 0])}
        for i, node in enumerate(sweep.node_names)}


# -- the one plain lowering ----------------------------------------------
def _mixed_circuit(swap=None):
    """NOT/BUF, 2- and 3-input gates and two 7-input gates over shared
    levels; ``swap`` maps a gate name to a replacement type."""
    from repro.circuit import Circuit, GateType as G

    swap = swap or {}
    c = Circuit("mixed")
    ins = [c.add_input(f"i{j}") for j in range(8)]
    spec = [("g0", G.NOT, ins[:1]), ("g1", G.BUF, ins[1:2]),
            ("g2", G.NAND, ins[2:4]), ("g3", G.XOR, ins[4:6]),
            ("w0", G.AND, ins[:7]), ("w1", G.OR, ins[1:8]),
            ("g4", G.NAND, ["g0", "g2"]), ("g5", G.NOR, ["g1", "g3", "w0"]),
            ("g9", G.OR, ["g2", "g3", "i7"]),
            ("g6", G.XOR, ["g4", "g5"]), ("g7", G.NOT, ["g6"]),
            ("g8", G.AND, ["g7", "w1"])]
    for name, gate_type, fanins in spec:
        c.add_gate(name, swap.get(name, gate_type), fanins)
    for out in ("g8", "g5", "g9", "w1"):
        c.set_output(out)
    return c


def _bdd_weights(circuit, base=0.3):
    """Exact weights under non-dyadic input probabilities, so that the
    order in which a gate's vector weights add shows in the last bit."""
    probs = {name: base + 0.037 * j for j, name in enumerate(circuit.inputs)}
    return compute_weights(circuit, method="bdd", input_probs=probs)


def _assert_same_levels(got_levels, want_levels):
    assert len(got_levels) == len(want_levels)
    for got_level, want_level in zip(got_levels, want_levels):
        assert len(got_level) == len(want_level)
        for got, want in zip(got_level, want_level):
            assert (got.arity, got.truth) == (want.arity, want.truth)
            for field in ("slots", "eps_rows", "fanin_slots", "bits",
                          "flip_mask", "w_masked", "w_side"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert np.array_equal(a, b), field


@pytest.mark.parametrize("name", list_benchmarks() + ["mixed"])
def test_lowering_fuses_each_level(name):
    """At most one group per (level, fused arity), no arity-1 group, and
    a batch of one keeps the plan's schedule."""
    from repro.reliability.compiled_pass import _FUSE_MAX_ARITY
    from repro.reliability.tensor_pass import TensorBatch

    circuit = _mixed_circuit() if name == "mixed" else get_benchmark(name)
    weights = compute_weights(circuit, method="sampled", n_patterns=256,
                              seed=0)
    plan = CompiledSinglePass(circuit, weights)
    for level in plan.levels:
        fused = [g.arity for g in level if g.arity <= _FUSE_MAX_ARITY]
        assert len(fused) == len(set(fused))
        assert all(g.arity >= 2 for g in level)
        assert all((g.truth is None) == (g.arity <= _FUSE_MAX_ARITY)
                   for g in level)
    batch = TensorBatch([plan])
    assert batch.num_groups == plan.num_groups
    _assert_same_levels(batch.levels, plan.levels)


@pytest.mark.parametrize("swap", [None, {"g2": "xor"}, {"g2": "and"},
                                  {"g0": "buf"}, {"g7": "buf"},
                                  {"w0": "nor"}],
                         ids=["weights-only", "two-input", "complement",
                              "not-to-buf", "not-to-buf-deep",
                              "wide-retruth"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_patch_weights_equals_fresh_compile(swap, dtype):
    """A plan patched in place equals a fresh compile, array for array."""
    from repro.circuit import GateType

    before = _mixed_circuit()
    plan = CompiledSinglePass(before, _bdd_weights(before), dtype=dtype)
    types = {g: GateType(t) for g, t in (swap or {}).items()}
    after = _mixed_circuit(types)
    weights = _bdd_weights(after, base=0.3 if swap else 0.21)
    old = plan.weights.weights
    changed = [g for g in after.topological_gates()
               if not np.array_equal(old[g], weights.weights[g])]
    assert changed
    assert plan.patch_weights(after, weights, changed_gates=changed,
                              retruthed_gates=list(types))
    fresh = CompiledSinglePass(after, weights, dtype=dtype)
    assert plan.level_values == fresh.level_values
    _assert_same_levels(plan.levels, fresh.levels)
    assert np.array_equal(plan.output_prob1, fresh.output_prob1)
    for attr in ("p01", "p10", "per_output"):
        assert np.array_equal(getattr(plan.run_sweep(EPS_POINTS), attr),
                              getattr(fresh.run_sweep(EPS_POINTS), attr))
