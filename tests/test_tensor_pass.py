"""Multi-circuit parity suite for the tensor kernel.

The contract under test: a :class:`~repro.reliability.tensor_pass.
TensorBatch` sweep returns, per circuit, the same numbers a solo
:meth:`CompiledSinglePass.run_sweep` produces, bit for bit, whether or
not ragged eps batches are padded to a common width.  On top of the
kernel, the engine's cross-session batching must hand back response
payloads matching solo ``submit`` calls, and compute each distinct eps
point once.
"""

import json

import numpy as np
import pytest

from repro.circuits.catalog import get_benchmark, list_benchmarks
from repro.engine import AnalysisEngine
from repro.probability.weights import compute_weights
from repro.reliability.compiled_pass import CompiledSinglePass
from repro.reliability.single_pass import SinglePassAnalyzer
from repro.reliability.tensor_pass import TensorBatch

EPS = [0.001, 0.02, 0.1]


def _plan(circuit, **kwargs):
    """A compiled plan with cheap (sampled) weights — parity doesn't
    care how accurate the weight vectors are, only that both arms use
    the same ones."""
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 8, seed=0)
    return CompiledSinglePass(circuit, weights, **kwargs)


# -- full-catalog parity (acceptance criterion) -------------------------
def test_full_catalog_parity():
    """Tensor batch over all 18 catalog circuits matches solo kernels."""
    names = list_benchmarks()
    assert len(names) == 18
    plans = [_plan(get_benchmark(name)) for name in names]
    batch = TensorBatch(plans)
    assert batch.n_circuits == 18
    assert batch.num_groups < batch.unmerged_groups
    sweeps = batch.run_sweep([EPS] * len(plans))
    for plan, sweep in zip(plans, sweeps):
        solo = plan.run_sweep(EPS)
        assert sweep.circuit_name == solo.circuit_name
        assert sweep.p01.shape == solo.p01.shape
        # Equal-length batches: padding never fires, results are
        # bit-identical (and trivially within the 1e-10 bound).
        assert np.array_equal(sweep.p01, solo.p01), plan.circuit.name
        assert np.array_equal(sweep.p10, solo.p10), plan.circuit.name
        assert np.array_equal(sweep.per_output, solo.per_output)
        np.testing.assert_allclose(sweep.per_output, solo.per_output,
                                   atol=1e-10)


def test_ragged_batches():
    """Mixed-length eps batches pad to the longest and slice back."""
    plans = [_plan(get_benchmark(n)) for n in ("c17", "c432", "b9")]
    specs = [[0.01], [0.005, 0.05, 0.2, 0.4], [0.1, 0.3]]
    sweeps = TensorBatch(plans).run_sweep(specs)
    for plan, sp, sweep in zip(plans, specs, sweeps):
        solo = plan.run_sweep(sp)
        assert sweep.p01.shape == solo.p01.shape
        # Every column is independent of the sweep's width (a 1-point
        # sweep runs as two columns), so padding changes no bit.
        assert np.array_equal(sweep.p01, solo.p01), plan.circuit.name
        assert np.array_equal(sweep.p10, solo.p10), plan.circuit.name
        assert np.array_equal(sweep.per_output, solo.per_output)


def test_batch_of_one():
    plan = _plan(get_benchmark("c880"))
    sweeps = TensorBatch([plan]).run_sweep([EPS])
    solo = plan.run_sweep(EPS)
    assert len(sweeps) == 1
    assert np.array_equal(sweeps[0].p01, solo.p01)
    assert np.array_equal(sweeps[0].per_output, solo.per_output)


def test_duplicate_circuit_in_batch():
    """The same plan may appear twice (two result slots, same numbers)."""
    plan = _plan(get_benchmark("c17"))
    sweeps = TensorBatch([plan, plan]).run_sweep([EPS, EPS])
    assert np.array_equal(sweeps[0].p01, sweeps[1].p01)


def test_per_gate_eps_maps():
    circuit = get_benchmark("c17")
    plan = _plan(circuit)
    other = _plan(get_benchmark("b9"))
    gate = plan.gate_names[0]
    specs = [{"default": 0.05, gate: 0.2}, {"default": 0.01}]
    sweeps = TensorBatch([plan, other]).run_sweep([specs, [0.05, 0.01]])
    solo = plan.run_sweep(specs)
    assert np.array_equal(sweeps[0].p01, solo.p01)


def test_eps10_batches():
    """Asymmetric channels batch too (parallel eps10 spec lists)."""
    plans = [_plan(get_benchmark(n)) for n in ("c17", "cu")]
    eps = [[0.01, 0.05], [0.02, 0.1]]
    eps10 = [[0.005, 0.02], None]
    sweeps = TensorBatch(plans).run_sweep(eps, eps10)
    for plan, e, e10, sweep in zip(plans, eps, eps10, sweeps):
        solo = plan.run_sweep(e, e10)
        np.testing.assert_allclose(sweep.p01, solo.p01, atol=1e-10)
        np.testing.assert_allclose(sweep.p10, solo.p10, atol=1e-10)


def test_sweep_point_results_match_solo():
    """Sliced SinglePassResult views agree with the solo kernel's."""
    plans = [_plan(get_benchmark(n)) for n in ("c17", "fig1a")]
    sweeps = TensorBatch(plans).run_sweep([EPS, EPS])
    for plan, sweep in zip(plans, sweeps):
        solo = plan.run_sweep(EPS)
        for j in range(len(EPS)):
            a, b = sweep.point(j), solo.point(j)
            assert a.per_output == b.per_output


# -- construction contracts ---------------------------------------------
def test_rejects_empty_batch():
    with pytest.raises(ValueError, match="at least one plan"):
        TensorBatch([])


def test_rejects_non_single_pass_plans(reconvergent_circuit):
    analyzer = SinglePassAnalyzer(reconvergent_circuit,
                                  use_correlation=True)
    with pytest.raises(TypeError, match="CompiledSinglePass"):
        TensorBatch([analyzer.plan])


def test_rejects_mixed_dtypes_without_override():
    c17, cu = get_benchmark("c17"), get_benchmark("cu")
    p32 = _plan(c17, dtype=np.float32)
    p64 = _plan(cu)
    with pytest.raises(ValueError, match="disagree on dtype"):
        TensorBatch([p32, p64])
    batch = TensorBatch([p32, p64], dtype=np.float64)
    assert batch.dtype == np.float64


def test_wrong_batch_count_raises():
    plans = [_plan(get_benchmark("c17")), _plan(get_benchmark("cu"))]
    batch = TensorBatch(plans)
    with pytest.raises(ValueError, match="eps batches"):
        batch.run_sweep([EPS])


def test_float32_batch():
    plans = [_plan(get_benchmark(n), dtype=np.float32)
             for n in ("c17", "b9")]
    batch = TensorBatch(plans)
    sweeps = batch.run_sweep([EPS, EPS])
    for plan, sweep in zip(plans, sweeps):
        assert sweep.p01.dtype == np.float32
        np.testing.assert_allclose(sweep.p01, plan.run_sweep(EPS).p01,
                                   atol=1e-6)


def test_packed_row_blocks():
    """Plans' row blocks (nodes plus their zero row) pack back to back:
    every merged group writes node rows, each gate once, and reads rows
    of its own block only (arity-1 gates: their block's zero row)."""
    plans = [_plan(get_benchmark(n)) for n in ("c17", "c432", "b9")]
    batch = TensorBatch(plans)
    assert all(p.state_rows == len(p.node_names) + 1 for p in plans)
    starts = np.cumsum([0] + [p.state_rows for p in plans])
    written = np.concatenate([g.slots for level in batch.levels
                              for g in level])
    assert len(set(written.tolist())) == len(written) == sum(
        len(p.gate_names) for p in plans)
    block = np.searchsorted(starts, written, side="right") - 1
    assert (written < starts[block + 1] - 1).all()
    for level in batch.levels:
        for g in level:
            owner = np.searchsorted(starts, g.slots, side="right") - 1
            read = np.searchsorted(starts, g.fanin_slots, side="right") - 1
            assert (read == owner[:, None]).all()


# -- engine cross-session batching --------------------------------------
def _plain(circuit, eps):
    return {"op": "analyze", "circuit": circuit, "eps": eps,
            "correlation": False}


def test_engine_tensor_batch_matches_solo_submits():
    """Cross-session coalesced responses carry the same result payloads
    as solo requests (same point count → bit-identical kernels)."""
    reqs = [_plain("c17", [0.01, 0.05]), _plain("b9", [0.01, 0.05]),
            _plain("cu", [0.01, 0.05])]
    with AnalysisEngine() as eng:
        batched = eng.submit_many(reqs)
        assert [r.method for r in batched] == ["single-pass-tensor"] * 3
        for r in batched:
            assert r.ok
            assert r.telemetry["batch_circuits"] == 3
    with AnalysisEngine() as eng:
        solo = [eng.submit(dict(req)) for req in reqs]
    for b, s in zip(batched, solo):
        assert s.ok
        assert json.dumps(b.result, sort_keys=True) == \
            json.dumps(s.result, sort_keys=True)


def test_engine_tensor_batch_same_session_coalescing_still_works():
    """Same-circuit requests still coalesce inside their group."""
    reqs = [_plain("c17", [0.01]), _plain("c17", [0.05]),
            _plain("b9", [0.02])]
    with AnalysisEngine() as eng:
        responses = eng.submit_many(reqs)
    assert all(r.ok for r in responses)
    assert responses[0].coalesced == 2
    assert responses[2].coalesced == 1
    assert all(r.method == "single-pass-tensor" for r in responses)


def test_engine_correlation_requests_bypass_tensor_path():
    reqs = [
        {"op": "analyze", "circuit": "c17", "eps": [0.01],
         "correlation": True},
        {"op": "analyze", "circuit": "b9", "eps": [0.01],
         "correlation": True},
    ]
    with AnalysisEngine() as eng:
        responses = eng.submit_many(reqs)
    assert all(r.ok for r in responses)
    assert all(r.method != "single-pass-tensor" for r in responses)
    assert all("batch_circuits" not in r.telemetry for r in responses)


def test_engine_single_group_skips_tensor_path():
    """One eligible session is exactly what plain coalescing handles."""
    reqs = [_plain("c17", [0.01]), _plain("c17", [0.05])]
    with AnalysisEngine() as eng:
        responses = eng.submit_many(reqs)
    assert all(r.ok for r in responses)
    assert all(r.method != "single-pass-tensor" for r in responses)


def test_engine_bad_circuit_degrades_gracefully():
    """An unresolvable group falls out of the tensor set; the rest batch."""
    reqs = [_plain("c17", [0.01]), _plain("no-such-circuit", [0.01]),
            _plain("b9", [0.01])]
    with AnalysisEngine() as eng:
        responses = eng.submit_many(reqs)
    assert responses[0].ok and responses[2].ok
    assert not responses[1].ok
    assert responses[0].method == "single-pass-tensor"
    assert responses[2].method == "single-pass-tensor"


def test_engine_tensor_batch_cache_reused():
    reqs = [_plain("c17", [0.01]), _plain("b9", [0.01])]
    with AnalysisEngine() as eng:
        eng.submit_many(reqs)
        assert len(eng._tensor_batches) == 1
        first = next(iter(eng._tensor_batches.values()))
        eng.submit_many(reqs)
        assert len(eng._tensor_batches) == 1
        assert next(iter(eng._tensor_batches.values())) is first


def test_engine_tensor_batch_merge_ignores_arrival_order(monkeypatch):
    """Two orders of one group set merge once and answer byte-equal."""
    from repro.obs import metrics as obs_metrics
    sweeps = []
    run_sweep = TensorBatch.run_sweep

    def spy(self, eps_batches):
        out = run_sweep(self, eps_batches)
        sweeps.append({s.circuit_name: s for s in out})
        return out

    monkeypatch.setattr(TensorBatch, "run_sweep", spy)
    reqs = [_plain("c17", [0.01, 0.05]), _plain("b9", [0.02]),
            _plain("x2", [0.01])]
    obs_metrics.reset()
    obs_metrics.set_enabled(True)
    try:
        with AnalysisEngine() as eng:
            forward = eng.submit_many(reqs)
            backward = eng.submit_many(reqs[::-1])
        merges = obs_metrics.get_registry().value("tensor_pass.merges")
    finally:
        obs_metrics.set_enabled(False)
        obs_metrics.reset()
    assert merges == 1
    assert [r.result for r in forward] == [r.result for r in backward[::-1]]
    first, second = sweeps
    assert sorted(first) == sorted(second) == ["b9", "c17", "x2"]
    for name, sweep in first.items():
        for attr in ("per_output", "p01", "p10"):
            a, b = getattr(sweep, attr), getattr(second[name], attr)
            assert a.tobytes() == b.tobytes(), (name, attr)


def test_engine_tensor_metrics_emitted():
    from repro.obs import metrics as obs_metrics
    obs_metrics.reset()
    obs_metrics.set_enabled(True)
    try:
        with AnalysisEngine() as eng:
            eng.submit_many([_plain("c17", [0.01]), _plain("b9", [0.01])])
        names = {entry["name"] for entry in obs_metrics.snapshot()}
        assert "engine.tensor_batch.circuits" in names
        assert "tensor_pass.sweeps" in names
    finally:
        obs_metrics.set_enabled(False)
        obs_metrics.reset()


def test_engine_computes_each_distinct_point_once(monkeypatch):
    """Overlapping eps windows reach the kernels as distinct columns only,
    and every envelope still equals its solo ``submit`` counterpart."""
    from repro.engine.core import _point_key
    from repro.obs import metrics as obs_metrics
    from repro.reliability.compiled_pass import CompiledCorrelatedPass

    gate = get_benchmark("c17").gates[0]
    per_gate = {"default": 0.02, gate: 0.2}
    reqs = [
        _plain("c17", [0.01, 0.02, 0.05]), _plain("c17", [0.02, 0.05, 0.1]),
        _plain("c17", [dict(per_gate), 0.01]), _plain("c17", [per_gate]),
        _plain("b9", [0.05, 0.1]), _plain("b9", [0.1, 0.2]),
        _plain("b9", [0.05]),
        _plain("x2", [0.01]), _plain("x2", [0.01, 0.03]),
        # A same-session coalesced group off the tensor path (correlated).
        {"op": "analyze", "circuit": "cu", "eps": [0.01, 0.05],
         "correlation": True},
        {"op": "analyze", "circuit": "cu", "eps": [0.05, 0.1],
         "correlation": True},
        # An eps10 group: eps10 is keyed together with its eps.
        {"op": "analyze", "circuit": "fig2", "eps": [0.01, 0.05],
         "eps10": [0.02, 0.05], "correlation": False},
        {"op": "analyze", "circuit": "fig2", "eps": [0.01, 0.05],
         "eps10": [0.02, 0.1], "correlation": False},
    ]
    columns = {}

    def spy(cls, name):
        original = getattr(cls, name)

        def wrapper(self, eps_specs, eps10_specs=None):
            if cls is TensorBatch:
                for plan, specs in zip(self.plans, eps_specs):
                    columns[plan.circuit.name] = [_point_key(s)
                                                  for s in specs]
            else:
                columns[self.circuit.name] = [
                    (_point_key(s), None if eps10_specs is None
                     else _point_key(eps10_specs[j]))
                    for j, s in enumerate(eps_specs)]
            return original(self, eps_specs, eps10_specs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (TensorBatch, CompiledSinglePass, CompiledCorrelatedPass):
        spy(cls, "run_sweep")
    obs_metrics.reset()
    obs_metrics.set_enabled(True)
    try:
        with AnalysisEngine() as eng:
            batched = eng.submit_many(reqs)
        duplicates = obs_metrics.get_registry().value(
            "engine.duplicate_points")
    finally:
        obs_metrics.set_enabled(False)
        obs_metrics.reset()
    monkeypatch.undo()

    assert {n: len(c) for n, c in columns.items()} == {
        "c17": 5, "b9": 3, "x2": 2, "cu": 3, "fig2": 3}
    assert all(len(set(c)) == len(c) for c in columns.values())
    assert duplicates == sum(len(r["eps"]) for r in reqs) - 16
    assert [r.method for r in batched[:9]] == ["single-pass-tensor"] * 9
    assert batched[0].coalesced == 4 and batched[9].coalesced == 2

    untimed = ("elapsed_s", "telemetry", "obs", "coalesced", "method")
    with AnalysisEngine() as eng:
        solo = [eng.submit(dict(req)) for req in reqs]
    for b, s in zip(batched, solo):
        assert b.ok and s.ok
        got, want = b.to_dict(), s.to_dict()
        for key in untimed:
            got.pop(key, None)
            want.pop(key, None)
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(want, sort_keys=True)


def test_engine_builds_each_distinct_payload_once(monkeypatch):
    """A result's ``to_dict`` runs once per distinct column — on the
    tensor-batched and the coalesced path alike — however many request
    points share it, and the envelopes equal solo ``submit`` ones."""
    from repro.reliability.single_pass import SinglePassResult

    batches = [
        # Two circuits: one TensorBatch, 3 + 2 distinct columns.
        ([_plain("c17", [0.01, 0.02]), _plain("c17", [0.02, 0.01, 0.05]),
          _plain("b9", [0.05]), _plain("b9", [0.05, 0.1])], 5),
        # One circuit: one coalesced sweep, 2 distinct columns.
        ([_plain("x2", [0.01, 0.03]), _plain("x2", [0.03, 0.03])], 2),
    ]
    calls = []
    original = SinglePassResult.to_dict

    def spy(self, include_nodes=False):
        calls.append(self)
        return original(self, include_nodes)

    monkeypatch.setattr(SinglePassResult, "to_dict", spy)
    answers = []
    with AnalysisEngine() as eng:
        for reqs, distinct in batches:
            del calls[:]
            answers.append(eng.submit_many(reqs))
            assert len(calls) == distinct
            assert len({id(r) for r in calls}) == distinct
    monkeypatch.undo()
    assert [r.method for r in answers[0]] == ["single-pass-tensor"] * 4
    assert all(r.coalesced == 2 for r in answers[1])

    untimed = ("elapsed_s", "telemetry", "obs", "coalesced", "method")
    with AnalysisEngine() as eng:
        for (reqs, _), batched in zip(batches, answers):
            for req, got in zip(reqs, batched):
                want = eng.submit(dict(req)).to_dict()
                got = got.to_dict()
                for key in untimed:
                    got.pop(key, None)
                    want.pop(key, None)
                assert json.dumps(got, sort_keys=True) == \
                    json.dumps(want, sort_keys=True)


def test_engine_tensor_batch_follows_patched_plans():
    """A type-only swap patches an edit session's plain plan in place; the
    next tensor batch over it must answer from the patched arrays, not
    from a batch merged before the edit."""
    def reqs():
        return [{"op": "analyze", "session": "s1", "eps": [0.05],
                 "correlation": False}, _plain("b9", [0.05])]

    with AnalysisEngine() as eng:
        assert eng.submit({"op": "edit", "session": "s1", "circuit": "c17",
                           "edits": [{"kind": "set_eps", "eps": 0.05}]}).ok
        eng.submit_many(reqs())
        gate = get_benchmark("c17").topological_gates()[0]
        edit = eng.submit({"op": "edit", "session": "s1", "edits": [
            {"kind": "swap_gate", "gate": gate, "gate_type": "and"}]})
        assert edit.result["reports"][0]["plans"]["plain"] == "patched"
        batched = eng.submit_many(reqs())
        solo = eng.submit(reqs()[0])
    assert batched[0].method == "single-pass-tensor"
    assert batched[0].result["points"] == solo.result["points"]
