"""Tests for the incremental analysis subsystem (docs/incremental.md).

Covers the typed edit log, the dirty-cone/recount machinery's parity
guarantee (bit-identical to from-scratch analysis after every edit, on
every catalog circuit, in both correlation modes), the patch-vs-relower
plan ladder, workspace forking, and the engine's ``edit`` / ``reanalyze``
session requests including the serve byte-match guarantee.
"""

import json
import random

import pytest

from repro.circuit import (
    Circuit,
    CircuitError,
    GateArityError,
    GateType,
    Node,
    structural_hash,
)
from repro.circuits import get_benchmark, list_benchmarks
from repro.engine import AnalysisEngine, serve_stream
from repro.incremental import (
    AddGate,
    CircuitWorkspace,
    RemoveGate,
    SetEps,
    SwapGate,
    Triplicate,
    edit_to_dict,
    parse_edit,
)
from repro.probability.weights import (
    exhaustive_weight_vectors,
    sampled_weight_vectors,
)
from repro import obs
from repro.reliability import SinglePassAnalyzer
from repro.reliability.compiled_pass import CompiledCorrelatedPass
from tests.test_compiled_pass import assert_same_correlated

OPTS = {"weights": "sampled", "n_patterns": 1 << 10}

#: Gate types interchangeable at any arity >= 2 (for random swaps).
SWAPPABLE = (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR)


def assert_parity(ws, abs_tol=1e-10):
    """Workspace results must match a from-scratch analysis of the
    mutated circuit built with the same weight configuration."""
    for mode in (False, True):
        fresh = SinglePassAnalyzer(
            ws.circuit, weight_method=ws.weight_method,
            n_patterns=ws.n_patterns, seed=ws.seed,
            use_correlation=mode,
            max_correlation_pairs=ws.max_correlation_pairs,
            max_correlation_level_gap=ws.max_correlation_level_gap)
        want = fresh.run(ws.current_eps())
        got = ws.analyze(use_correlation=mode)
        for out, delta in want.per_output.items():
            assert got.per_output[out] == pytest.approx(delta, abs=abs_tol), \
                f"output {out} diverged in mode correlation={mode}"


class TestEditRecords:
    @pytest.mark.parametrize("edit", [
        SetEps(0.1),
        SetEps(0.2, gate="g1"),
        SwapGate("g1", "nor"),
        SwapGate("g1", GateType.NAND, fanins=("a", "b")),
        AddGate("g9", "and", ("a", "b")),
        AddGate("g9", "xor", ("a", "b"), output=True, eps=0.01),
        RemoveGate("g9"),
        Triplicate(("g1", "g2")),
        Triplicate(("g1",), voter_eps=0.001),
    ])
    def test_dict_round_trip(self, edit):
        assert parse_edit(edit_to_dict(edit)) == edit

    def test_typed_edit_passes_through(self):
        edit = SetEps(0.1)
        assert parse_edit(edit) is edit

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown edit kind"):
            parse_edit({"kind": "resize_gate", "gate": "g1"})

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError, match="bad 'set_eps' edit"):
            parse_edit({"kind": "set_eps", "nonsense": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_edit(["set_eps", 0.1])

    def test_unknown_gate_type_rejected(self):
        with pytest.raises(ValueError, match="unknown gate type"):
            SwapGate("g1", "tri-state")


class TestWorkspaceValidation:
    def test_bdd_weights_rejected(self, full_adder_circuit):
        with pytest.raises(ValueError, match="bdd"):
            CircuitWorkspace(full_adder_circuit, weight_method="bdd")

    def test_bad_compiled_rejected(self, full_adder_circuit):
        with pytest.raises(ValueError, match="compiled"):
            CircuitWorkspace(full_adder_circuit, compiled="always")

    def test_eps_out_of_range(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        with pytest.raises(ValueError, match="outside"):
            ws.apply(SetEps(0.7))

    def test_eps_on_input_rejected(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        with pytest.raises(ValueError, match="non-gate"):
            ws.apply(SetEps(0.1, gate="a"))

    def test_swap_input_rejected(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        with pytest.raises(CircuitError, match="non-gate"):
            ws.apply(SwapGate("a", "nand"))

    def test_remove_driving_gate_rejected(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        with pytest.raises(CircuitError, match="still drives"):
            ws.apply(RemoveGate("t"))

    def test_remove_output_rejected(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        with pytest.raises(CircuitError, match="primary output"):
            ws.apply(RemoveGate("cout"))

    def test_add_input_type_rejected(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        with pytest.raises(CircuitError, match="logic gate"):
            ws.apply(AddGate("x", "input", ()))

    def test_empty_triplicate_rejected(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        with pytest.raises(ValueError, match="at least one"):
            ws.apply(Triplicate(()))

    def test_failed_edit_leaves_state_intact(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit, eps=0.05)
        before = dict(ws.analyze().per_output)
        with pytest.raises(CircuitError):
            # Forward reference: 'cout' is defined after 't'.
            ws.apply(SwapGate("t", "and", fanins=("cout", "a")))
        assert ws.edit_log == []
        assert dict(ws.analyze().per_output) == before

    def test_type_only_swap_equals_rebuilt_circuit(self):
        """A type-only swap replaces one node of a copy; the circuit equals
        the netlist re-entered through the public API, memoized hash
        included."""
        ws = CircuitWorkspace(get_benchmark("c499"))
        for gate in _c499_edit_gates(ws.circuit):
            original = ws.circuit.node(gate).gate_type
            for gate_type in (_SWAP_PAIR[original], original):
                fanins = ws.circuit.node(gate).fanins
                want = ws._rebuild(replace={
                    gate: Node(gate, gate_type, fanins)})
                structural_hash(ws.circuit)  # memoized on the old circuit
                ws.apply(SwapGate(gate, gate_type))
                got = ws.circuit
                names = got.topological_order()
                assert names == want.topological_order()
                assert [got.node(n) for n in names] == \
                    [want.node(n) for n in names]
                assert [got.level(n) for n in names] == \
                    [want.level(n) for n in names]
                assert [got.fanouts(n) for n in names] == \
                    [want.fanouts(n) for n in names]
                assert (got.inputs, got.gates, got.outputs) == \
                    (want.inputs, want.gates, want.outputs)
                assert structural_hash(got) == structural_hash(want)

    def test_arity_invalid_swap_leaves_state_intact(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit, eps=0.05)
        before = dict(ws.analyze().per_output)
        circuit = ws.circuit
        with pytest.raises(GateArityError) as rebuilt:
            ws._rebuild(replace={"t": Node("t", GateType.NOT, ("a", "b"))})
        with pytest.raises(GateArityError) as swapped:
            ws.apply(SwapGate("t", "not"))
        assert str(swapped.value) == str(rebuilt.value)
        assert ws.edit_log == [] and ws.circuit is circuit
        assert dict(ws.analyze().per_output) == before


class TestPlanLadder:
    def test_set_eps_reuses_plans(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        ws.analyze()  # builds the correlated plan
        report = ws.apply(SetEps(0.02))
        assert report.dirty_nodes == 0 and report.reweighted_gates == 0
        assert report.plans == {"plain": "unbuilt", "correlated": "reused"}
        assert_parity(ws)

    def test_type_only_swap_patches_plain_plan(self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit)
        ws.analyze(use_correlation=False)  # builds the plain plan
        report = ws.apply(SwapGate("g2", "nor"))
        assert report.plans["plain"] == "patched"
        assert report.plans["correlated"] == "unbuilt"
        # g2's own weight vector survives; the cone downstream recounts.
        assert report.dirty_nodes == 4   # g2, g4, g5, g6
        assert report.reweighted_gates == 3
        assert_parity(ws)

    def test_rewired_swap_relowers(self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit)
        ws.analyze(use_correlation=False)
        ws.analyze(use_correlation=True)
        report = ws.apply(SwapGate("g4", "nand", fanins=("g1", "i3")))
        assert report.plans == {"plain": "relowered",
                                "correlated": "relowered"}
        assert_parity(ws)

    def test_noop_swap_touches_nothing(self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit)
        node = ws.circuit.node("g2")
        report = ws.apply(SwapGate("g2", node.gate_type))
        assert report.dirty_nodes == 0
        assert ws.edit_log[-1].kind == "swap_gate"
        assert_parity(ws)

    def test_structural_edits_drop_plans(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit)
        ws.analyze()
        report = ws.apply(AddGate("extra", "nand", ("t", "cin"),
                                  output=True))
        assert report.plans["correlated"] == "relowered"
        assert "extra" in ws.circuit.outputs
        assert_parity(ws)
        report = ws.apply(Triplicate(("c1",), voter_eps=0.001))
        assert report.plans["correlated"] == "relowered"
        assert_parity(ws)

    def test_refused_plan_keeps_its_reason(self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit, max_correlation_pairs=2)
        analyzer = ws.analyzer()
        assert not analyzer.uses_compiled
        assert analyzer.plan_unsupported_reason.startswith(
            "correlated pair budget (2) exceeded")
        assert ws.analyzer(use_correlation=False) \
            .plan_unsupported_reason is None

    def test_add_then_remove_round_trips(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit, eps=0.04)
        baseline = dict(ws.analyze().per_output)
        ws.apply(AddGate("scratch", "and", ("a", "b"), eps=0.2))
        assert_parity(ws)
        ws.apply(RemoveGate("scratch"))
        assert "scratch" not in ws.current_eps()
        assert dict(ws.analyze().per_output) == baseline
        assert_parity(ws)


class TestEpsState:
    def test_triplicate_installs_hardened_eps(self, full_adder_circuit):
        ws = CircuitWorkspace(full_adder_circuit, eps=0.05)
        ws.apply(SetEps(0.2, gate="c1"))
        ws.apply(Triplicate(("c1",), voter_eps=0.001))
        eps = ws.current_eps()
        # Copies inherit the protected gate's eps, the voter gets its own.
        # c1 was AND(a, b); its three fresh-named copies replicate it.
        copies = [g for g in ws.circuit.topological_gates()
                  if g.startswith("tmr")
                  and ws.circuit.fanins(g) == ("a", "b")]
        assert len(copies) == 3
        assert all(eps[c] == 0.2 for c in copies)
        assert eps["c1"] == 0.001  # the voter reclaims the name
        assert_parity(ws)

    def test_default_and_per_gate_updates(self, tree_circuit):
        ws = CircuitWorkspace(tree_circuit, eps=0.05)
        ws.apply(SetEps(0.01))
        ws.apply(SetEps(0.3, gate="top"))
        eps = ws.current_eps()
        assert eps["default"] == 0.01 and eps["top"] == 0.3
        assert_parity(ws)


#: Same-arity replacement of each swappable two-input gate type.
_SWAP_PAIR = {GateType.AND: GateType.OR, GateType.OR: GateType.AND,
              GateType.NAND: GateType.NOR, GateType.NOR: GateType.NAND,
              GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR}


def _c499_edit_gates(circuit):
    """The edit_loop workload's 16 swap gates: every 13th two-input gate
    of c499."""
    return [g for g in circuit.topological_gates()
            if circuit.node(g).arity == 2][::13][:16]


def _counter(name, **labels):
    return sum(entry["value"] for entry in obs.metrics.snapshot()
               if entry["name"] == name
               and all(entry["labels"].get(k) == v
                       for k, v in labels.items()))


class TestCorrelatedPatch:
    """A type-only swap patches the correlated plan in place; the patch
    answers as a fresh compile, and falls back to a re-lower when it
    cannot prove the pair closure unchanged."""

    def test_type_only_swap_patches_both_plans(self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit)
        ws.analyze(use_correlation=False)
        ws.analyze(use_correlation=True)
        plan = ws._plans[True]
        obs.reset()
        obs.enable()
        try:
            report = ws.apply(SwapGate("g2", "nor"))
            patched = _counter("incremental.plan_decisions",
                               plan="correlated", decision="patched")
        finally:
            obs.disable()
            obs.reset()
        assert report.plans == {"plain": "patched", "correlated": "patched"}
        assert patched == 1
        assert ws._plans[True] is plan and plan.revision == 1
        assert_parity(ws)

    @pytest.fixture(scope="class")
    def c499_workspace(self):
        ws = CircuitWorkspace(get_benchmark("c499"))
        ws.analyze()
        return ws

    def test_c499_swaps_equal_fresh_compiles(self, c499_workspace):
        """Swap and unswap each edit_loop gate: one plan, patched 32
        times, answers as a fresh compile after every patch."""
        ws = c499_workspace
        plan = ws._plans[True]
        for gate in _c499_edit_gates(ws.circuit):
            original = ws.circuit.node(gate).gate_type
            for gate_type in (_SWAP_PAIR[original], original):
                report = ws.apply(SwapGate(gate, gate_type))
                assert report.plans["correlated"] == "patched"
                assert ws._plans[True] is plan
                assert_same_correlated(
                    plan, CompiledCorrelatedPass(ws.circuit, ws.weights))

    def test_moved_waves_lay_out_their_level_again(self, monkeypatch):
        """When a changed expansion row now reads rows of its level from
        another wave, its level's waves are laid out again (here on c432:
        undoing a swap, then a second swap)."""
        from repro.reliability import plan_patch

        moved = []
        waves_of = plan_patch._waves_of

        def spy(plan, idx, key_id, w_flat, rows):
            waves = waves_of(plan, idx, key_id, w_flat, rows)
            moved.append(bool((waves != idx.row_wave[rows]).any()))
            return waves

        monkeypatch.setattr(plan_patch, "_waves_of", spy)
        ws = CircuitWorkspace(get_benchmark("c432"), weight_method="sampled",
                              n_patterns=1 << 10, seed=7)
        ws.analyze()
        plan = ws._plans[True]
        for gate, gate_type in (("g59", "or"), ("g59", "and"),
                                ("g26", "and")):
            report = ws.apply(SwapGate(gate, gate_type))
            assert report.plans["correlated"] == "patched"
            assert_same_correlated(
                plan, CompiledCorrelatedPass(ws.circuit, ws.weights))
        assert moved == [True, True]

    def test_patch_skips_discovery_and_bucketing(self, c499_workspace,
                                                 monkeypatch):
        ws = c499_workspace.fork()
        ws.analyze()  # a fresh plan, never patched

        def spy(*args, **kwargs):
            raise AssertionError("a type-only swap re-ran plan discovery")

        monkeypatch.setattr(CompiledCorrelatedPass, "_discover", spy)
        monkeypatch.setattr(CompiledCorrelatedPass, "_gate_buckets", spy)
        for gate in _c499_edit_gates(ws.circuit)[2:4]:
            original = ws.circuit.node(gate).gate_type
            for gate_type in (_SWAP_PAIR[original], original):
                report = ws.apply(SwapGate(gate, gate_type))
                assert report.plans["correlated"] == "patched"
                ws.analyze()

    def test_fitted_plan_falls_back(self):
        """c1908's closure passes a 50k-row budget and is fitted to a
        level gap, which a swap can move: the patch declines with a
        reason, the plan re-lowers, and answers as a fresh compile."""
        ws = CircuitWorkspace(get_benchmark("c1908"),
                              weight_method="sampled", n_patterns=1 << 10,
                              max_correlation_pairs=50_000)
        ws.analyze()
        assert ws._plans[True].level_gap is not None
        gate = next(g for g in ws.circuit.topological_gates()
                    if ws.circuit.node(g).gate_type in _SWAP_PAIR)
        obs.reset()
        obs.enable()
        try:
            report = ws.apply(SwapGate(
                gate, _SWAP_PAIR[ws.circuit.node(gate).gate_type]))
            (span,) = obs.get_tracer().find("compiled_pass.patch_correlated")
        finally:
            obs.disable()
            obs.reset()
        assert report.plans["correlated"] == "relowered"
        assert span.attrs["fallback"] == "fitted"
        got = ws.analyze()
        fresh = CompiledCorrelatedPass(ws.circuit, ws.weights,
                                       max_pairs=50_000)
        assert_same_correlated(ws._plans[True], fresh)
        want = fresh.run(ws.current_eps()["default"])
        assert [got.per_output[o] for o in ws.circuit.outputs] == \
            want.per_output[:, 0].tolist()

    def test_results_taken_before_a_patch_keep_their_values(
            self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit, eps=0.1)
        before = ws.analyze()
        per_output = dict(before.per_output)
        node_errors = dict(before.node_errors)
        # An engine seeded before the patch, to compare the lazily seeded
        # one of ``before`` against.
        seeded = list(ws.analyze().correlation_engine.coefficient_items())
        report = ws.apply(SwapGate("g2", "nor"))
        assert report.plans["correlated"] == "patched"
        assert dict(ws.analyze().per_output) != per_output
        assert dict(before.per_output) == per_output
        assert dict(before.node_errors) == node_errors
        assert list(before.correlation_engine.coefficient_items()) == seeded

    def test_patching_one_fork_leaves_the_other(self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit, eps=0.1)
        fork = ws.fork()
        want = dict(ws.analyze().per_output)
        fork.analyze()
        report = fork.apply(SwapGate("g2", "nor"))
        assert report.plans["correlated"] == "patched"
        assert dict(fork.analyze().per_output) != want
        assert dict(ws.analyze().per_output) == want
        assert ws._plans[True].revision == 0
        assert_parity(fork)


class TestFork:
    def test_fork_is_isolated(self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit, eps=0.05)
        ws.analyze(use_correlation=False)
        before = dict(ws.analyze().per_output)
        fork = ws.fork()
        fork.apply(SwapGate("g2", "nor"))
        fork.apply(Triplicate(("g1",)))
        assert_parity(fork)
        # The parent never noticed.
        assert ws.edit_log == []
        assert ws.circuit.num_gates == reconvergent_circuit.num_gates
        assert dict(ws.analyze().per_output) == before

    def test_fork_carries_edit_log(self, reconvergent_circuit):
        ws = CircuitWorkspace(reconvergent_circuit)
        ws.apply(SetEps(0.1))
        fork = ws.fork()
        fork.apply(SetEps(0.2))
        assert [e.kind for e in fork.edit_log] == ["set_eps", "set_eps"]
        assert len(ws.edit_log) == 1


def _random_edits(ws, rng):
    """A deterministic mixed edit sequence for one catalog circuit."""
    order = ws.circuit.topological_order()
    gates = ws.circuit.topological_gates()
    edits = [SetEps(0.11)]
    swap_pool = [g for g in gates
                 if len(ws.circuit.fanins(g)) >= 2
                 and ws.circuit.node(g).gate_type in SWAPPABLE]
    if swap_pool:
        g = rng.choice(swap_pool)
        cur = ws.circuit.node(g).gate_type
        edits.append(SwapGate(
            g, rng.choice([t for t in SWAPPABLE if t is not cur])))
        # Rewire another gate to two nodes defined earlier than itself
        # (skipped on the largest circuits to bound the from-scratch
        # reference cost; the patch-vs-relower paths are identical).
        g2 = rng.choice(swap_pool)
        idx = order.index(g2)
        if idx >= 2 and len(gates) <= 1000:
            f1, f2 = rng.sample(order[:idx], 2)
            edits.append(SwapGate(g2, "nand", fanins=(f1, f2)))
    edits.append(Triplicate((rng.choice(gates),), voter_eps=0.002))
    f1, f2 = rng.sample(order, 2)
    edits.append(AddGate("ws_added", "nor", (f1, f2), output=True))
    edits.append(SetEps(0.09, gate="ws_added"))
    return edits


@pytest.mark.parametrize("name", list_benchmarks())
def test_randomized_edit_sequence_parity(name):
    """After every edit the workspace matches a from-scratch analysis of
    the mutated circuit — in plain AND correlation-corrected mode."""
    circuit = get_benchmark(name)
    gap = (2 if circuit.num_gates > 1000
           else 4 if circuit.num_gates > 200 else None)
    max_pairs = 100_000 if circuit.num_gates > 1500 else 1_000_000
    ws = CircuitWorkspace(circuit, eps=0.05, weight_method="sampled",
                          n_patterns=1 << 10, seed=7,
                          max_correlation_pairs=max_pairs,
                          max_correlation_level_gap=gap)
    rng = random.Random(f"incremental-{name}")
    for edit in _random_edits(ws, rng):
        ws.apply(edit)
        assert_parity(ws)


@pytest.mark.parametrize("name, method, n_patterns, batch_gates", [
    ("c499", "sampled", 1000, 3), ("c499", "sampled", 1000, None),
    ("x2", "exhaustive", 1 << 10, None)])
def test_swap_reweight_is_byte_identical_to_from_scratch(
        name, method, n_patterns, batch_gates, monkeypatch):
    """The batched dirty-cone recount leaves every weight vector
    byte-equal to a from-scratch count of the mutated circuit (a tail
    word that is only partly used, and a cone split over batches,
    included)."""
    if batch_gates is not None:
        from repro.incremental import workspace
        monkeypatch.setattr(workspace, "_REWEIGHT_BATCH_WORDS",
                            batch_gates * (-(-n_patterns // 64)))
    circuit = get_benchmark(name)
    ws = CircuitWorkspace(circuit, weight_method=method,
                          n_patterns=n_patterns, seed=3)
    rng = random.Random(f"reweight-{name}")
    pool = [g for g in ws.circuit.topological_gates()
            if len(ws.circuit.fanins(g)) >= 2
            and ws.circuit.node(g).gate_type in SWAPPABLE]
    g = rng.choice(pool)
    cur = ws.circuit.node(g).gate_type
    ws.apply(SwapGate(g, next(t for t in SWAPPABLE if t is not cur)))
    order = ws.circuit.topological_order()
    g2 = next(x for x in pool[len(pool) // 2:] if order.index(x) >= 2)
    f1, f2 = rng.sample(order[:order.index(g2)], 2)
    report = ws.apply(SwapGate(g2, "nand", fanins=(f1, f2)))
    assert report.reweighted_gates > 1
    if method == "sampled":
        fresh = sampled_weight_vectors(ws.circuit, n_patterns=n_patterns,
                                       seed=3)
    else:
        fresh = exhaustive_weight_vectors(ws.circuit)
    assert sorted(ws.weights.weights) == sorted(fresh.weights)
    for gate, vec in fresh.weights.items():
        assert ws.weights.weights[gate].tobytes() == vec.tobytes(), gate


def _with_swapped(circuit, gate, gate_type):
    """The mutated circuit built from scratch (for byte-match tests)."""
    out = Circuit(circuit.name)
    for node in circuit:
        if node.gate_type.is_input:
            out.add_input(node.name)
        elif node.gate_type.is_constant:
            out.add_const(node.name,
                          1 if node.gate_type is GateType.CONST1 else 0)
        else:
            gt = gate_type if node.name == gate else node.gate_type
            out.add_gate(node.name, gt, node.fanins)
    for o in circuit.outputs:
        out.set_output(o)
    return out


class TestEngineEditSessions:
    @pytest.fixture()
    def engine(self):
        with AnalysisEngine(max_sessions=4) as eng:
            yield eng

    def test_edit_envelope(self, engine):
        env = engine.submit({
            "id": 3, "op": "edit", "session": "s1", "circuit": "c17",
            "edits": [{"kind": "set_eps", "eps": 0.1}],
            "options": OPTS}).to_dict()
        assert env["ok"] and env["id"] == 3
        assert env["method"] == "incremental"
        assert env["result"]["command"] == "edit"
        assert env["result"]["session"] == "s1"
        assert env["result"]["reports"][0]["kind"] == "set_eps"
        assert env["result"]["eps"]["default"] == 0.1
        assert engine.stats()["edit_sessions"] == 1

    def test_analyze_after_edit_byte_matches_one_shot(self, engine):
        r = engine.submit({"op": "edit", "session": "s1", "circuit": "c17",
                           "edits": [{"kind": "swap_gate", "gate": "10",
                                      "gate_type": "nor"}],
                           "options": OPTS})
        assert r.ok, r.error
        warm = engine.submit({"op": "analyze", "session": "s1",
                              "eps": 0.05})
        mutated = _with_swapped(get_benchmark("c17"), "10", GateType.NOR)
        one_shot = engine.submit({"op": "analyze", "circuit": mutated,
                                  "eps": 0.05, "options": OPTS})
        assert warm.ok and one_shot.ok
        assert json.dumps(warm.result) == json.dumps(one_shot.result)

    def test_sweep_after_edit_byte_matches_one_shot(self, engine):
        engine.submit({"op": "edit", "session": "s2", "circuit": "c17",
                       "edits": [{"kind": "swap_gate", "gate": "22",
                                  "gate_type": "and"}],
                       "options": OPTS})
        warm = engine.submit({"op": "sweep", "session": "s2",
                              "eps": [0.01, 0.05, 0.1]})
        mutated = _with_swapped(get_benchmark("c17"), "22", GateType.AND)
        one_shot = engine.submit({"op": "sweep", "circuit": mutated,
                                  "eps": [0.01, 0.05, 0.1],
                                  "options": OPTS})
        assert warm.ok and one_shot.ok
        assert json.dumps(warm.result) == json.dumps(one_shot.result)

    def test_reanalyze_uses_workspace_eps(self, engine):
        engine.submit({"op": "edit", "session": "s3", "circuit": "c17",
                       "edits": [{"kind": "set_eps", "eps": 0.07}],
                       "options": OPTS})
        env = engine.submit({"op": "reanalyze", "session": "s3"}).to_dict()
        assert env["ok"], env.get("error")
        point = env["result"]["points"][0]
        assert point["eps"]["default"] == 0.07

    def test_plan_warmth_follows_the_compiled_plan(self, engine):
        """The cache probe reports a plan warm only once it is compiled:
        a new session's first reanalyze and the first one after a
        structural edit find none."""
        def plan_warmth(request):
            response = engine.submit(request)
            assert response.ok, response.error
            return response.telemetry["cache"]["plan"]

        reanalyze = {"op": "reanalyze", "session": "s5"}
        plan_warmth({"op": "edit", "session": "s5", "circuit": "c17",
                     "edits": [{"kind": "set_eps", "eps": 0.05}],
                     "options": OPTS})
        assert plan_warmth(reanalyze) == "cold"
        assert plan_warmth(reanalyze) == "warm"
        plan_warmth({"op": "edit", "session": "s5",
                     "edits": [{"kind": "add_gate", "name": "g9",
                                "gate_type": "nand",
                                "fanins": ["10", "11"]}]})
        assert plan_warmth(reanalyze) == "cold"

    def test_edit_requires_session(self, engine):
        env = engine.submit({"op": "edit", "circuit": "c17",
                             "edits": [{"kind": "set_eps", "eps": 0.1}]
                             }).to_dict()
        assert not env["ok"] and "session" in env["error"]

    def test_unknown_session_without_circuit(self, engine):
        env = engine.submit({"op": "analyze", "session": "nope",
                             "eps": 0.05}).to_dict()
        assert not env["ok"] and "unknown session" in env["error"]

    def test_empty_edits_rejected(self, engine):
        env = engine.submit({"op": "edit", "session": "s4",
                             "circuit": "c17", "edits": [],
                             "options": OPTS}).to_dict()
        assert not env["ok"] and "non-empty" in env["error"]

    def test_serve_stream_edit_session(self, engine):
        import io
        lines = [
            json.dumps({"id": 1, "op": "edit", "session": "tuned",
                        "circuit": "c17",
                        "edits": [{"kind": "triplicate", "gates": ["22"],
                                   "voter_eps": 0.001}],
                        "options": OPTS}),
            json.dumps({"id": 2, "op": "reanalyze", "session": "tuned"}),
        ]
        out = io.StringIO()
        served = serve_stream(engine, io.StringIO("\n".join(lines) + "\n"),
                              out)
        envelopes = [json.loads(l) for l in out.getvalue().splitlines()]
        assert served == 2
        assert all(e["ok"] for e in envelopes)
        assert envelopes[0]["result"]["reports"][0]["kind"] == "triplicate"
        assert envelopes[1]["result"]["points"]
