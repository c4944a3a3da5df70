"""Fast unit tests of the benchmark's verdict rule, reference check and
layer attribution (no child processes, no timing).

    python -m pytest benchmarks/e2e/test_compare.py -q
"""

import re
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import reference  # noqa: E402
import report  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


# -- verdict rule -------------------------------------------------------

@pytest.mark.parametrize("new, expected", [
    ([101.0, 102.0, 100.5], "unchanged"),
    ([120.0, 121.0, 119.0], "worse"),
    ([80.0, 81.0, 79.5], "better"),
])
def test_verdict_against_bound(new, expected):
    base = [100.0, 101.0, 99.0]
    assert report.verdict(base, new, "lower", 0.1) == expected


def test_verdict_direction_for_higher_is_better():
    base = [100.0, 101.0, 99.0]
    assert report.verdict(base, [80.0, 81.0, 79.0], "higher", 0.1) == "worse"
    assert report.verdict(base, [120.0, 121.0, 119.0], "higher",
                          0.1) == "better"


def test_wide_spread_is_unresolved_unless_every_new_run_wins():
    base = [100.0, 140.0, 70.0, 120.0]
    assert report.spread(base) > 0.1
    assert report.verdict(base, [101.0, 99.0, 100.0], "lower",
                          0.1) == "unresolved"
    assert report.verdict(base, [60.0, 65.0, 62.0], "lower",
                          0.1) == "better"
    # Every new run worse is still not a resolved regression.
    assert report.verdict(base, [150.0, 160.0, 155.0], "lower",
                          0.1) == "unresolved"


def _doc(workload, latency, failed=0, attempted=10, seconds=20.0):
    return {"workload": workload, "failed": failed, "attempted": attempted,
            "seconds": seconds,
            "metrics": {"latency_ms": {"value": latency, "better": "lower"}}}


def test_compare_flags_worse_metric_and_rising_failures():
    base = [_doc("w", v) for v in (100.0, 101.0, 99.0)]
    same = [_doc("w", v) for v in (100.5, 100.0, 99.5)]
    rows, failing = report.compare(base, same, {"latency_ms": 0.1})
    assert not failing
    assert [r["verdict"] for r in rows] == ["unchanged", "unchanged"]

    slower = [_doc("w", v) for v in (130.0, 131.0, 129.0)]
    assert report.compare(base, slower, {"latency_ms": 0.1})[1]

    failures = [_doc("w", v, failed=1) for v in (100.5, 100.0, 99.5)]
    rows, failing = report.compare(base, failures, {"latency_ms": 0.1})
    assert failing
    assert rows[-1]["metric"] == "failed_frac"
    assert rows[-1]["verdict"] == "worse"


def test_compare_judges_only_metrics_the_workload_reports():
    base = [_doc("w", v) for v in (100.0, 101.0, 99.0)]
    rows, _ = report.compare(base, base, {"latency_ms": 0.1,
                                          "serve_rps": 0.1})
    assert [r["metric"] for r in rows] == ["latency_ms", "failed_frac"]


def test_compare_refuses_runs_of_different_lengths():
    base = [_doc("w", v) for v in (100.0, 101.0, 99.0)]
    longer = [_doc("w", v, seconds=40.0) for v in (100.0, 101.0, 99.0)]
    with pytest.raises(ValueError, match="different lengths"):
        report.compare(base, longer, {"latency_ms": 0.1})


def test_tail_needs_ten_samples_beyond():
    assert report.tail([1.0] * 10) is None
    assert report.tail([float(i) for i in range(1, 12)]) == {"pct": 9,
                                                            "value": 1.0}
    tail = report.tail([float(i) for i in range(1, 101)])
    assert tail == {"pct": 90, "value": 90.0}


# -- speed scaling ------------------------------------------------------

def test_each_stretch_is_scaled_by_the_probes_around_it(monkeypatch):
    # Without CPU pinning the probe runs in place: nothing else to fake.
    monkeypatch.delattr(speed.os, "sched_setaffinity", raising=False)
    ref = speed.REFERENCE_S
    times = iter([2 * ref, 2 * ref, 8 * ref])
    monkeypatch.setattr(speed, "probe", lambda *repeats: next(times))
    probe = speed.Speed(scale=True)
    probe.start()
    assert probe.factor() == pytest.approx(0.5)    # machine at half speed
    assert probe.factor() == pytest.approx(0.25)   # end probe starts next
    assert probe.factors == pytest.approx([0.5, 0.25])
    unscaled = speed.Speed(scale=False)
    unscaled.start()
    assert unscaled.factor() == 1.0 and unscaled.probes == []


# -- reference check ----------------------------------------------------

ENTRY = {"outputs": ["a", "b"],
         "deltas": [[0.1 * i, 0.2 * i] for i in range(len(reference.POOL))]}


def _points(indices, bump=0.0):
    return [{"eps": reference.POOL[i],
             "per_output": {"a": 0.1 * i + bump, "b": 0.2 * i}}
            for i in indices]


def test_matching_answer_passes():
    assert reference.check_points(ENTRY, [3, 7], _points([3, 7]), "x") == []


def test_answer_beyond_tolerance_fails():
    problems = reference.check_points(ENTRY, [3], _points([3], bump=2e-9),
                                      "x")
    assert len(problems) == 1 and "a" in problems[0]
    assert reference.check_points(ENTRY, [3], _points([3], bump=5e-10),
                                  "x") == []


def test_wrong_shape_fails():
    assert reference.check_points(ENTRY, [3, 4], _points([3]), "x")
    missing = [{"eps": 0.02, "per_output": {"a": 0.3}}]
    assert reference.check_points(ENTRY, [3], missing, "x")


def test_committed_golden_files_cover_the_pool():
    for workload in ("cold_cli", "warm_serve", "batch_plain", "edit_loop"):
        doc = reference.load(workload)
        for key, entry in doc["entries"].items():
            assert len(entry["deltas"]) == len(reference.POOL), key
            assert all(len(row) == len(entry["outputs"])
                       for row in entry["deltas"]), key
    edit = reference.load("edit_loop")
    assert len(edit["gates"]) == 16
    for gate in [None, *edit["gates"]]:
        assert reference.edit_key(gate) in edit["entries"]
    assert all(e in reference.POOL for e in edit["set_eps"])


# -- layer attribution --------------------------------------------------

def _span(name, start, duration, tid=1):
    return layers.Span(name, start, duration, pid=1, tid=tid)


def test_self_time_subtracts_direct_children_only():
    spans = layers.with_self_times([
        _span("engine.request", 0.0, 10.0),
        _span("single_pass.sweep", 1.0, 6.0),
        _span("compiled_pass.run_sweep_correlated", 1.5, 5.0),
        _span("engine.request", 0.0, 3.0, tid=2),
    ])
    selfs = {(s.name, s.tid): s.self_time for s in spans}
    assert selfs[("engine.request", 1)] == pytest.approx(4.0)
    assert selfs[("single_pass.sweep", 1)] == pytest.approx(1.0)
    assert selfs[("engine.request", 2)] == pytest.approx(3.0)
    totals = layers.by_layer(spans)
    assert totals["reliability.kernel"] == pytest.approx(6.0)
    assert totals["engine.scheduler"] == pytest.approx(7.0)
    assert sum(totals.values()) == pytest.approx(13.0)


def test_abandoned_bdd_counts_only_when_weights_end_up_sampled():
    spans = layers.with_self_times([
        # build (1 s, unspanned) + weights.bdd hitting the limit + sampling
        _span("engine.session.weights", 0.0, 5.0),
        _span("weights.bdd", 1.0, 3.0),
        _span("weights.sampled", 4.0, 1.0),
        # a BDD that succeeded is not waste
        _span("engine.session.weights", 10.0, 2.0),
        _span("weights.bdd", 10.5, 1.5),
    ])
    assert layers.bdd_wasted(spans) == pytest.approx(4.0)


def test_setup_boundary_is_end_of_nth_top_level_marker():
    spans = layers.with_self_times([
        _span("engine.session.create", 0.0, 0.5),
        _span("engine.request", 0.5, 1.0),
        _span("engine.request", 2.0, 1.0),
        _span("engine.request", 4.0, 1.0),
    ])
    assert layers.split_after(spans, "engine.request", 2) == 3.0
    with pytest.raises(ValueError):
        layers.split_after(spans, "engine.request", 4)


# -- workload inputs stay inside the reference set -----------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_every_generated_request_has_a_golden_entry(seed):
    entries = {name: reference.load(name)["entries"]
               for name in workloads.WORKLOADS}
    cold = workloads.ColdCli(seed, 1.0)
    for round_ in islice(cold.rounds(), 50):
        assert {c for c, _, _ in round_} == set(cold.METRIC)
        for circuit, outputs, idx in round_:
            assert reference.entry_key(circuit, True,
                                       outputs) in entries["cold_cli"]
            assert 0 <= idx < len(reference.POOL)
    warm = workloads.WarmServe(seed, 1.0)
    for mix, stream in zip(warm.MIXES, warm.cursor()):
        requests = list(islice(stream, 60 * sum(mix.values())))
        widths = [len(i) for _, i in requests]
        assert {w: widths.count(w) for w in warm.WIDTHS} == {
            w: len(widths) // 3 for w in warm.WIDTHS}
        circuits = [c for c, _ in requests]
        assert {c: circuits.count(c) for c in mix} == {
            c: 60 * n for c, n in mix.items()}
        for circuit in circuits:
            assert reference.entry_key(circuit,
                                       True) in entries["warm_serve"]
    batch = workloads.BatchPlain(seed, 1.0)
    for requests in islice(batch.batches(), 50):
        for circuit, indices in requests:
            assert reference.entry_key(circuit,
                                       False) in entries["batch_plain"]
            assert indices[-1] < len(reference.POOL)


@pytest.mark.parametrize("seed", [0, 1])
def test_edit_cycles_swap_at_most_one_gate_at_a_time(seed):
    edit = workloads.EditLoop(seed, 1.0)
    gates = edit.golden["gates"]
    swapped = None
    swapped_on = []
    for change, state, eps_idx, reads in islice(edit.cycles(), 1000):
        if change["kind"] == "swap_gate":
            gate = change["gate"]
            assert swapped in (None, gate)
            original, alternative = gates[gate]
            swapped = gate if change["gate_type"] == alternative else None
            if swapped is None:
                assert change["gate_type"] == original
            else:
                swapped_on.append(gate)
        assert state == swapped
        assert reference.edit_key(state) in edit.golden["entries"]
        assert reference.POOL[eps_idx] in edit.golden["set_eps"] + [0.05]
        assert len(set(reads)) == edit.READ_WIDTH
    # Every gate once per round of 16 swaps.
    for start in range(0, len(swapped_on) - 15, 16):
        assert sorted(swapped_on[start:start + 16]) == sorted(gates)


def _inputs(workload, count):
    cursor = workload.cursor()
    if isinstance(cursor, list):
        return [list(islice(stream, count)) for stream in cursor]
    return list(islice(cursor, count))


@pytest.mark.parametrize("name", ["warm_serve", "batch_plain", "edit_loop"])
def test_inputs_are_endless_and_fixed_by_the_seed(name):
    """Each system gets its own cursor over the same inputs, for a run of
    any length; another seed draws other inputs."""
    cls = workloads.WORKLOADS[name]
    count = 5000
    first = _inputs(cls(3, 1.0), count)
    assert first == _inputs(cls(3, 1.0), count)
    assert first != _inputs(cls(4, 1.0), count)
    cold = workloads.ColdCli(3, 1.0)
    assert (list(islice(cold.rounds(), 500))
            == list(islice(workloads.ColdCli(3, 1.0).rounds(), 500)))


def test_metric_names_are_unique_and_well_formed():
    names = [m["name"] for m in workloads.SPEC["end_to_end"]
             + workloads.SPEC["per_layer"]]
    names += [name for w in workloads.WORKLOADS.values()
              for name, _, _, _ in w.metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    for w in workloads.WORKLOADS.values():
        for name, _, better, bound in w.metrics:
            assert better in ("lower", "higher")
            assert 0 < bound <= 0.25
            assert workloads.BOUNDS[name] == bound


def test_per_layer_names_follow_the_layer_families():
    produced_op = set(layers.SPAN_LAYERS) | {
        "probability.bdd_wasted", "cli.import", "cli.process",
        "engine.queue_wait", "engine.wire"}
    for metric in workloads.SPEC["per_layer"]:
        name = metric["name"]
        if name.startswith("setup."):
            assert name[len("setup."):-2] in produced_op | {"process"}
            assert metric["unit"] == "s"
        elif name.endswith("_ms"):
            assert name[:-3] in produced_op
            assert metric["unit"] == "ms"
