"""Step-fused correlated kernel: column bit-identity and dispatch bound.

`CompiledCorrelatedPass.run_sweep` evaluates each dependency step
(corrected gates, or expansion rows, sunk together by
``repro.reliability.plan_order``) with one batched op per perturbation
form.  Batching across program shapes must not change a value: column j
of any sweep is byte-equal to the 1-point run at its eps,
and every column stays within TOL of the scalar engine.  The number of
batched ops per sweep is bounded by steps x forms, not by the number of
distinct program shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import get_benchmark, random_circuit
from repro.probability.weights import compute_weights
from repro.reliability import CompiledCorrelatedPass, SinglePassAnalyzer
from repro.reliability import compiled_pass
from tests.test_correlated_groups import check_placement, level_major_counts

TOL = 1e-10


def _steps(plan):
    """The plan's correlated steps, in run order."""
    return [st for st in plan._schedule if isinstance(st, compiled_pass._Step)]


def _specs(circuit, mode, width, rng):
    """``width`` eps points (and eps10, or None) of one eps ``mode``."""
    eps = [float(e) for e in rng.uniform(0.0, 0.4, width)]
    if mode == "per_gate":
        gates = circuit.topological_gates()
        eps = [{g: float(p) for g, p in zip(gates, rng.uniform(0.0, 0.4,
                                                                len(gates)))}
               for _ in range(width)]
    eps10 = None
    if mode == "asymmetric":
        eps10 = [float(e) for e in rng.uniform(0.0, 0.4, width)]
    return eps, eps10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       n_gates=st.integers(30, 200),
       width=st.integers(1, 33),
       mode=st.sampled_from(["symmetric", "asymmetric", "per_gate"]))
def test_columns_match_point_runs_and_scalar(seed, n_gates, width, mode):
    circuit = random_circuit(n_inputs=8 + seed % 8, n_gates=n_gates,
                             n_outputs=2 + seed % 3, seed=seed)
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 10, seed=0)
    plan = CompiledCorrelatedPass(circuit, weights)
    rng = np.random.default_rng(seed)
    eps, eps10 = _specs(circuit, mode, width, rng)
    sweep = plan.run_sweep(eps, eps10)
    for j in range(width):
        solo = plan.run(eps[j], None if eps10 is None else eps10[j])
        for got, want in ((sweep.per_output, solo.per_output),
                          (sweep.p01, solo.p01), (sweep.p10, solo.p10),
                          (sweep.correlation_coefficients,
                           solo.correlation_coefficients)):
            assert got[:, j].tobytes() == want[:, 0].tobytes()
    j = int(rng.integers(width))
    scalar = SinglePassAnalyzer(circuit, weights=weights,
                                use_correlation=True, compiled="off")
    ref = scalar.run(eps[j], None if eps10 is None else eps10[j])
    for o, out in enumerate(sweep.outputs):
        assert abs(ref.per_output[out] - sweep.per_output[o, j]) <= TOL
    for i, node in enumerate(sweep.node_names):
        assert abs(ref.node_errors[node].p01 - sweep.p01[i, j]) <= TOL
        assert abs(ref.node_errors[node].p10 - sweep.p10[i, j]) <= TOL


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       n_gates=st.integers(30, 200),
       width=st.integers(2, 9))
def test_random_netlists_sink_into_fewer_groups(seed, n_gates, width):
    """On random netlists the sunk schedule is valid member by member, no
    wider in correlated groups than the level-major one, and its columns
    equal 1-point runs byte for byte."""
    circuit = random_circuit(n_inputs=8 + seed % 8, n_gates=n_gates,
                             n_outputs=2 + seed % 3, seed=seed)
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 10, seed=0)
    plan, placement = check_placement(circuit, weights)
    groups, dispatches = level_major_counts(placement)
    assert plan.num_corr_groups <= groups
    assert len(plan._schedule) <= dispatches
    eps = [float(e) for e in np.random.default_rng(seed).uniform(
        0.0, 0.4, width)]
    sweep = plan.run_sweep(eps)
    for j in range(width):
        solo = plan.run(eps[j])
        for got, want in ((sweep.per_output, solo.per_output),
                          (sweep.p01, solo.p01), (sweep.p10, solo.p10),
                          (sweep.correlation_coefficients,
                           solo.correlation_coefficients)):
            assert got[:, j].tobytes() == want[:, 0].tobytes()


def test_c432_batched_ops_bounded_by_steps_times_forms(monkeypatch):
    circuit = get_benchmark("c432")
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 10, seed=0)
    plan = CompiledCorrelatedPass(circuit, weights)
    steps = _steps(plan)
    forms = {form for st in steps for form, *_ in st.forms}
    # One block per form in every step.
    for st in steps:
        assert len({form for form, *_ in st.forms}) == len(st.forms)
    assert plan.num_corr_groups <= len(steps) * len(forms)

    calls = []
    real = compiled_pass._form_terms

    def counting(form, *args):
        calls.append(form)
        return real(form, *args)

    monkeypatch.setattr(compiled_pass, "_form_terms", counting)
    for width in (1, 4, 32):
        calls.clear()
        plan.run_sweep(list(np.linspace(0.01, 0.2, width)))
        assert len(calls) == sum(len(st.forms) for st in steps)
        assert len(calls) <= len(steps) * len(forms)


def test_wide_sweep_runs_in_column_blocks(monkeypatch):
    """A sweep wider than one block runs block by block, bit-identically."""
    circuit = get_benchmark("c17")
    weights = compute_weights(circuit, method="exhaustive")
    plan = CompiledCorrelatedPass(circuit, weights)
    eps = list(np.linspace(0.0, 0.3, 9))
    whole = plan.run_sweep(eps)
    monkeypatch.setattr(compiled_pass, "_CHUNK_ELEMENTS",
                        2 * plan._step_operands)
    blocked = plan.run_sweep(eps)
    for name in ("per_output", "p01", "p10", "correlation_coefficients"):
        assert getattr(blocked, name).tobytes() == \
            getattr(whole, name).tobytes()


@pytest.mark.parametrize("name", ["c432", "c499"])
def test_every_member_lands_in_exactly_one_step(name):
    """Each corrected gate and each expansion row is written by one step."""
    circuit = get_benchmark(name)
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 10, seed=0)
    plan = CompiledCorrelatedPass(circuit, weights)
    gates, rows = [], []
    for st in _steps(plan):
        (gates if st.kind == "gate" else rows).extend(st.targets.tolist())
    assert len(gates) == len(set(gates))
    assert len(rows) == len(set(rows))
    assert set(rows) == set(plan._pair_rows_order.tolist())
