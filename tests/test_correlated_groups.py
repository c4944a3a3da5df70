"""Grouped correlated kernel: column independence, wave order, telemetry.

`CompiledCorrelatedPass` runs its corrected gates and coefficient rows in
dependency steps, each gathered into ``(operands, E)`` arrays and
evaluated once per perturbation form.  These tests pin the two properties
that batching must not break — eps columns never couple, and every member
runs after what it reads and before its first reader, in the step the
sink rule of ``repro.reliability.plan_order`` puts it in — plus the
batched-op telemetry.
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
from repro.reliability import compiled_pass, plan_order

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


def _reference_steps(p):
    """The sink rule of :mod:`repro.reliability.plan_order`, member by
    member in plain Python: ``{member: (level, phase, kind)}`` of the step
    each member runs in, and ``{member: (level, phase, kind)}`` of its
    base (level-major) step."""
    S = p.n_slots
    members = [m for m in range(len(p.kind)) if p.kind[m] >= 0]
    reads = {m: set() for m in members}
    for fanin, gate in p.fan.T.tolist():
        reads[gate].add(fanin)
    for child, reader in zip(p.child.tolist(), p.reader.tolist()):
        reads[reader].add(S + child)
    for m in members:
        if m >= S:
            reads[m].update(w for w in p.wires[m - S].tolist()
                            if w >= 0 and p.kind[w] >= 0)
    expand = {m for m in members if p.kind[m] == plan_order.EXPAND}
    wave = {}

    def wave_of(m):
        if m not in wave:
            wave[m] = max([wave_of(r) + 1 for r in reads[m] if r in expand
                           and p.level[r] == p.level[m]], default=0)
        return wave[m]

    def phase(m):
        kind = int(p.kind[m])
        if kind >= plan_order.PLAIN:
            return 0
        return 3 + wave_of(m) if kind == plan_order.EXPAND else kind + 1

    base = {m: (int(p.level[m]), phase(m), int(p.kind[m])) for m in members}
    forms = {m: {(w, b) for w in range(p.forms.shape[1]) for b in range(64)
                 if int(p.forms[m, w]) >> b & 1} for m in members}
    step_forms = {}
    for m in members:
        step_forms.setdefault(base[m], set()).update(forms[m])
    readers = {m: [] for m in members}
    for m in members:
        for r in reads[m]:
            readers[r].append(m)
    placed = {}
    for m in sorted(members, key=lambda m: base[m], reverse=True):
        limit = min((placed[r][:2] for r in readers[m]),
                    default=(float("inf"),))
        placed[m] = max(step for step in step_forms
                        if step[2] == base[m][2]
                        and base[m][:2] <= step[:2] < limit
                        and forms[m] <= step_forms[step])
    return placed, base


def _writes_and_reads(plan, item):
    """``(state slots, rows)`` one schedule item writes, and reads."""
    S = plan.state_rows
    if isinstance(item, compiled_pass._OpGroup):
        fanins = item.fanin_slots.ravel()
        return ((set(item.slots.tolist()), set()),
                (set(fanins[fanins < S - 1].tolist()), set()))
    if isinstance(item, compiled_pass._Step):
        state = set((item.state % S).tolist())
        if item.kind == "gate":
            return ((set(item.targets.tolist()), set()),
                    (state, set(item.rows.tolist())))
        state |= set((item.marginals % S).ravel().tolist())
        return ((set(), set(item.targets.tolist())),
                (state, set(item.rows.tolist())))
    rows, flat = item
    return (set(), set(rows.tolist())), (set((flat % S).tolist()), set())


def check_placement(circuit, weights, **kwargs):
    """Build a plan and check its schedule member by member: each member
    runs after every step writing what it reads and before its first
    reader, exactly where the sink rule puts it; returns ``(plan,
    level-major correlated group count, level-major dispatch count)``."""
    captured = {}
    place = plan_order.place

    def spy(p, wave=None):
        captured["p"] = p
        return place(p, wave)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_order, "place", spy)
        plan = CompiledCorrelatedPass(circuit, weights, **kwargs)
    p = captured["p"]

    # Validity of the schedule itself: per written slot or row, its
    # writer runs before every item reading it, and every read is
    # written earlier (or is an input, a constant or the zero row).
    writer = {}
    for i, item in enumerate(plan._schedule):
        (w_state, w_rows), _ = _writes_and_reads(plan, item)
        for key in [("s", x) for x in w_state] + [("r", x) for x in w_rows]:
            assert key not in writer
            writer[key] = i
    for i, item in enumerate(plan._schedule):
        _, (r_state, r_rows) = _writes_and_reads(plan, item)
        for key in [("s", x) for x in r_state] + [("r", x) for x in r_rows]:
            assert writer.get(key, -1) < i

    # Exactly where the rule puts each member, and in that step.
    placed, base = _reference_steps(p)
    stride = len(p.wires) + 4
    for m, (level, phase, kind) in placed.items():
        code, got_kind = divmod(int(p.step[m]), plan_order.KINDS)
        assert (code // stride, code % stride, got_kind) == \
            (level, phase, kind)
        key = ("s", m) if m < p.n_slots else ("r", m - p.n_slots)
        assert plan._schedule[writer[key]] is plan._layout[int(p.step[m])]

    return plan, p


def level_major_counts(p):
    """``(correlated groups, dispatches)`` of the level-major schedule the
    placement's members came from: one step per base step."""
    _, base = _reference_steps(p)
    base_steps = {}
    for m, step in base.items():
        base_steps.setdefault(step, set()).update(
            (w, b) for w in range(p.forms.shape[1]) for b in range(64)
            if int(p.forms[m, w]) >> b & 1)
    groups = sum(len(forms) + 1 if kind in (plan_order.GATE, plan_order.EXPAND)
                 else kind == plan_order.SAME
                 for (_, _, kind), forms in base_steps.items())
    return groups, len(base_steps)


@pytest.mark.parametrize("name", ["c432", "c499"])
def test_catalog_members_sink_by_the_rule(name):
    circuit = get_benchmark(name)
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 10, seed=0)
    plan, p = check_placement(circuit, weights)
    groups, dispatches = level_major_counts(p)
    assert plan.num_corr_groups < groups
    assert len(plan._schedule) < dispatches


def test_expansion_waves_follow_same_level_reads(same_level_circuit):
    circuit = same_level_circuit
    weights = compute_weights(circuit, method="exhaustive")
    plan, p = check_placement(circuit, weights)
    # The output's pair row reads rows of its own level: a later wave.
    assert p.wave.max() >= 1

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
        assert span.attrs["steps"] == plan.num_steps > 0
        assert reg.value("compiled_pass.correlated_steps",
                         **labels) == plan.num_steps
        assert span.attrs["plain_groups"] == plan.num_plain_groups
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
                     r"groups over \d+ steps, lowered in \d+ batches", out)
