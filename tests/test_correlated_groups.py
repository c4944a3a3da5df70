"""Grouped correlated kernel: column independence, wave order, telemetry.

`CompiledCorrelatedPass` runs its corrected gates and coefficient rows in
dependency steps, each gathered into ``(operands, E)`` arrays and
evaluated once per perturbation form.  These tests pin the two properties
that batching must not break — eps columns never couple, and a
coefficient row that reads another row of its own level runs in a later
wave — plus the batched-op telemetry.
"""

import re

import numpy as np
import pytest

from repro import cli, obs
from repro.circuit import CircuitBuilder
from repro.circuits import get_benchmark
from repro.obs import metrics as obs_metrics
from repro.probability.weights import compute_weights
from repro.reliability import CompiledCorrelatedPass, SinglePassAnalyzer

TOL = 1e-10


@pytest.mark.parametrize("name", ["c432", "c499"])
def test_sweep_columns_are_independent(name):
    """Column j of a 32-point sweep equals a 1-point run at eps j, exactly."""
    circuit = get_benchmark(name)
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 10, seed=0)
    plan = CompiledCorrelatedPass(circuit, weights)  # uncapped level gap
    eps = list(np.linspace(0.0, 0.3, 32))
    sweep = plan.run_sweep(eps)
    for j, e in enumerate(eps):
        solo = plan.run(e)
        assert np.array_equal(sweep.per_output[:, j], solo.per_output[:, 0])
        assert np.array_equal(sweep.p01[:, j], solo.p01[:, 0])
        assert np.array_equal(sweep.p10[:, j], solo.p10[:, 0])
        assert np.array_equal(sweep.correlation_coefficients[:, j],
                              solo.correlation_coefficients[:, 0])


@pytest.fixture
def same_level_circuit():
    """Two level-2 gates over a shared reconvergent pair, XORed together.

    The output's pair row (a, b) sits on level 2 and expands ``a`` through
    its gate; its children (g1, b) and (g2, b) are level-2 rows as well,
    so the parent must run in a later wave than they do.
    """
    cb = CircuitBuilder("same_level")
    x, y, z = cb.inputs("x", "y", "z")
    g1 = cb.and_(x, y, name="g1")
    g2 = cb.or_(y, z, name="g2")
    b = cb.and_(g1, g2, name="b")
    a = cb.or_(g1, g2, name="a")
    cb.xor(a, b, name="out")
    cb.outputs("out")
    return cb.build()


def _check_wave_placement(circuit, weights, monkeypatch):
    """Build a plan and assert its expansion waves follow the same-level
    reads, per step and per member; returns the plan."""
    # Capture the lowered members and (expansion row, row read) edges the
    # schedule is built from.
    lowered = {}
    build_steps = CompiledCorrelatedPass._steps

    def spy(self, members, programs, terms, forms, reads):
        lowered.update(members=members, reads=reads)
        return build_steps(self, members, programs, terms, forms, reads)

    monkeypatch.setattr(CompiledCorrelatedPass, "_steps", spy)
    plan = CompiledCorrelatedPass(circuit, weights)

    # (level position, wave) of every expansion row, and its step.
    placed = {}
    steps = []
    for lv, (_, _, _, waves) in enumerate(plan._schedule):
        for wave, st in enumerate(waves):
            assert st.kind == "expand"
            steps.append((lv, wave, st))
            for row in st.targets:
                placed[int(row)] = (lv, wave)
    assert any(wave >= 1 for _, wave, _ in steps)
    # Per step: a wave reads same-level rows of earlier waves only, and
    # wave w >= 1 reads at least one row of wave w - 1.
    for lv, wave, st in steps:
        same_level = [placed[int(r)][1] for r in st.rows
                      if placed.get(int(r), (None,))[0] == lv]
        assert all(w < wave for w in same_level)
        if wave:
            assert max(same_level) == wave - 1
    # Per member: every expansion row sits in its shallowest wave — one
    # past the deepest same-level row it reads, or wave 0 if none.
    target, ea = lowered["members"][0], lowered["members"][3]
    expansion_rows = {int(r) for r in target[ea >= 0]}
    assert expansion_rows == set(placed)
    reads = {}
    for row, read in zip(*(x.tolist() for x in lowered["reads"])):
        reads.setdefault(row, []).append(read)
    for row in expansion_rows:
        lv, wave = placed[row]
        same_level = [placed[r][1] for r in reads.get(row, ())
                      if placed.get(r, (None,))[0] == lv]
        assert wave == (max(same_level) + 1 if same_level else 0)
    return plan


def test_c432_waves_follow_same_level_reads(monkeypatch):
    circuit = get_benchmark("c432")
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 10, seed=0)
    _check_wave_placement(circuit, weights, monkeypatch)


def test_expansion_waves_follow_same_level_reads(same_level_circuit,
                                                 monkeypatch):
    circuit = same_level_circuit
    weights = compute_weights(circuit, method="exhaustive")
    plan = _check_wave_placement(circuit, weights, monkeypatch)

    eps = [0.0, 0.03, 0.2]
    eps10 = [0.1, 0.0, 0.07]
    sweep = plan.run_sweep(eps, eps10)
    scalar = SinglePassAnalyzer(circuit, weights=weights,
                                use_correlation=True, compiled="off")
    for j, e in enumerate(eps):
        ref = scalar.run(e, eps10[j])
        for o, out in enumerate(sweep.outputs):
            assert abs(ref.per_output[out] - sweep.per_output[o, j]) <= TOL
        for i, node in enumerate(sweep.node_names):
            assert abs(ref.node_errors[node].p01 - sweep.p01[i, j]) <= TOL
            assert abs(ref.node_errors[node].p10 - sweep.p10[i, j]) <= TOL
        engine = ref.correlation_engine
        for k, (a, ea, b, eb) in enumerate(sweep.correlation_pair_keys):
            assert abs(engine(a, ea, b, eb)
                       - sweep.correlation_coefficients[k, j]) <= TOL


def test_group_gauge_and_span_attribute(same_level_circuit):
    weights = compute_weights(same_level_circuit, method="exhaustive")
    obs.reset()
    obs.enable()
    try:
        plan = CompiledCorrelatedPass(same_level_circuit, weights)
        plan.run_sweep([0.01, 0.1])
        reg = obs_metrics.get_registry()
        labels = {"circuit": same_level_circuit.name}
        groups = reg.value("compiled_pass.correlated_groups", **labels)
        assert groups == plan.num_corr_groups
        assert 0 < groups < reg.value("compiled_pass.coefficient_rows",
                                      **labels)
        (span,) = obs.get_tracer().find("compiled_pass.run_sweep_correlated")
        assert span.attrs["groups"] == groups
        (span,) = obs.get_tracer().find("compiled_pass.compile_correlated")
        assert span.attrs["rows"] == plan.n_rows
        assert span.attrs["batches"] == plan.num_batches > 0
        assert reg.value("compiled_pass.lowering_batches",
                         **labels) == plan.num_batches
    finally:
        obs.disable()
        obs.reset()


def test_profile_prints_rows_and_groups(tmp_path, capsys):
    try:
        assert cli.main(["profile", "c17", "--eps", "0.05",
                         "--trace-out", str(tmp_path / "c17.trace.json")]) == 0
    finally:
        obs.disable()
        obs.reset()
    out = capsys.readouterr().out
    assert re.search(r"correlated plan: 20 coefficient rows in \d+ batched "
                     r"groups, lowered in \d+ batches", out)
