"""ECO-style incremental analysis: a circuit plus live derived artifacts.

A :class:`CircuitWorkspace` owns a :class:`~repro.circuit.Circuit` together
with everything the analyses derive from it — simulation packs, weight
vectors / signal probabilities, the correlation
:class:`~repro.probability.correlation.PairStructure`, and the compiled
plans of both kernels — and keeps all of it consistent under a typed edit
log (:mod:`repro.incremental.edits`).  Each edit computes its *dirty cone*
(the transitive fanout of the touched nodes) and recomputes only:

* the simulation packs of dirty nodes (one
  :func:`~repro.sim.simulator.evaluate_gate_words` call each, in
  topological order);
* the signal probabilities of dirty nodes and the weight vectors of gates
  with a dirty fanin — recounted over the retained packs by the same
  batched counting core as
  :func:`~repro.probability.weights._weights_from_packs`, so incremental
  results are *bit-identical* to a from-scratch analysis of the mutated
  circuit;
* the compiled plans, along a patch-vs-relower ladder: ``set_eps``
  invalidates nothing (eps enters at run time), a type-only ``swap_gate``
  patches both plans in place (the correlated one re-lowers against the
  retained ``PairStructure`` when its patch cannot prove the pair
  closure unchanged), and node-set-changing edits (rewires, add/remove,
  triplicate) drop the plans for lazy re-lowering over the
  incrementally maintained weights.

The weight maintenance deliberately resolves ``weight_method="auto"`` to
``"exhaustive"`` (≤ 20 uniform inputs) or ``"sampled"`` — never ``"bdd"``,
whose symbolic state cannot be patched per-cone.  On > 20-input circuits a
from-scratch ``auto`` analysis may therefore pick BDD weights where the
workspace samples; pass an explicit method when that distinction matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..circuit.circuit import Circuit, CircuitError, Node, structural_hash
from ..circuit.gate import GateType
from ..circuit.transform import triplicate_gates
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..probability.correlation import PairStructure
from ..probability.weights import (
    WeightData,
    _count_weights,
    _weights_from_packs,
    flatten_weights,
    unflatten_weights,
)
from ..reliability.closed_form import (
    MultiOutputObservabilityModel,
    ObservabilityModel,
)
from ..reliability.compiled_pass import (
    CompiledCorrelatedPass,
    CompiledPassUnsupported,
    CompiledSinglePass,
)
from ..reliability.single_pass import SinglePassAnalyzer, SinglePassResult
from ..sim import patterns
from ..sim.simulator import (
    evaluate_gate_words,
    exhaustive_simulate,
    simulate,
)
from ..spec import DEFAULT_KEY, EpsilonSpec, epsilon_of, parse_epsilon
from .edits import (
    AddGate,
    Edit,
    RemoveGate,
    SetEps,
    SwapGate,
    Triplicate,
    edit_to_dict,
    parse_edit,
)

__all__ = ["CircuitWorkspace", "EditReport"]

#: Plan-slot sentinel: not lowered yet (next use re-lowers lazily).
_UNBUILT = object()

#: Human-readable plan-slot names used in :class:`EditReport` entries.
_PLAN_NAMES = {False: "plain", True: "correlated"}

#: Gates times pack words per batch of :meth:`CircuitWorkspace._reweight`
#: (1 MB of 64-bit words): c499's edit cones counted in one batch lifted
#: a serve process's peak RSS by 3 MB over its set-up peak, and batches
#: of this size keep it there at nearly the same edit time.
_REWEIGHT_BATCH_WORDS = 1 << 17


@dataclass
class EditReport:
    """What one applied edit invalidated and how the plans reacted.

    ``plans`` maps ``"plain"`` / ``"correlated"`` to one of:

    * ``"reused"`` — the lowered plan survived the edit untouched;
    * ``"patched"`` — its integer-indexed arrays were updated in place;
    * ``"relowered"`` — a previously built plan was dropped and will be
      re-lowered lazily (reusing retained structure where possible);
    * ``"unbuilt"`` — there was no lowered plan to preserve.
    """

    kind: str
    #: Nodes whose simulation packs were recomputed (the dirty cone).
    dirty_nodes: int
    #: Gates whose weight vectors were recounted.
    reweighted_gates: int
    plans: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "dirty_nodes": self.dirty_nodes,
                "reweighted_gates": self.reweighted_gates,
                "plans": dict(self.plans)}


class CircuitWorkspace:
    """A mutable circuit whose analysis artifacts update per edit.

    Parameters mirror :class:`~repro.reliability.single_pass.
    SinglePassAnalyzer` where they overlap.  ``eps`` seeds the workspace's
    failure-probability state, which later ``set_eps`` edits mutate;
    :meth:`analyze` / :meth:`sweep` default to that state.

    Every mutation goes through :meth:`apply`; a rejected edit (unknown
    node, arity violation, forward-referencing rewire, …) raises before
    any state is touched, leaving the workspace intact.
    """

    def __init__(self, circuit: Circuit,
                 eps: EpsilonSpec = 0.05,
                 weight_method: str = "auto",
                 n_patterns: int = 1 << 16,
                 seed: int = 0,
                 input_probs: Optional[Mapping[str, float]] = None,
                 input_errors: Optional[Mapping[str, Any]] = None,
                 use_correlation: bool = True,
                 max_correlation_pairs: int = 1_000_000,
                 max_correlation_level_gap: Optional[int] = None,
                 compiled: str = "auto"):
        circuit.validate()
        if compiled not in ("auto", "off"):
            raise ValueError(f"compiled must be 'auto' or 'off', "
                             f"got {compiled!r}")
        self.circuit = circuit
        self.input_probs = dict(input_probs) if input_probs else None
        self.input_errors = dict(input_errors or {})
        self.use_correlation = bool(use_correlation)
        self.max_correlation_pairs = max_correlation_pairs
        self.max_correlation_level_gap = max_correlation_level_gap
        self.compiled = compiled
        self.seed = seed

        self.weight_method = self._resolve_method(weight_method)
        with trace_span("incremental.init", circuit=circuit.name,
                        method=self.weight_method):
            if self.weight_method == "exhaustive":
                # Mirrors exhaustive_weight_vectors, retaining the packs.
                self._values = exhaustive_simulate(circuit)
                self.n_patterns = max(64, 1 << len(circuit.inputs))
            else:
                # Mirrors sampled_weight_vectors, retaining the packs.
                rng = np.random.default_rng(seed)
                n_words = patterns.words_for_patterns(n_patterns)
                pack = patterns.random_pack(circuit.inputs, n_words, rng,
                                            self.input_probs)
                self._values = simulate(circuit, pack)
                self.n_patterns = n_patterns
            self._n_words = patterns.words_for_patterns(self.n_patterns)
            self._weights = _weights_from_packs(
                circuit, self._values, self.n_patterns, self.weight_method)

        self._eps: Dict[str, float] = self._initial_eps(eps)
        self._plans: Dict[bool, Any] = {}
        #: Per mode, why the last plan build was refused.
        self._plan_reasons: Dict[bool, str] = {}
        self._pair_structure: Optional[PairStructure] = None
        self._analyzers: Dict[bool, SinglePassAnalyzer] = {}
        self._closed: Dict[Optional[str], Any] = {}
        self._edit_log: List[Edit] = []

    # -- construction helpers ------------------------------------------
    def _resolve_method(self, method: str) -> str:
        if method == "bdd":
            raise ValueError(
                "weight_method='bdd' cannot be incrementally maintained; "
                "use 'exhaustive', 'sampled', or 'auto'")
        if method == "auto":
            if len(self.circuit.inputs) <= 20 and not self.input_probs:
                return "exhaustive"
            return "sampled"
        if method == "exhaustive":
            if self.input_probs:
                raise ValueError(
                    "exhaustive weights assume uniform inputs; use sampled")
            if len(self.circuit.inputs) > 26:
                raise ValueError("exhaustive simulation limited to 26 inputs")
            return method
        if method == "sampled":
            return method
        raise ValueError(f"unknown weight method {method!r}")

    def _initial_eps(self, eps: EpsilonSpec) -> Dict[str, float]:
        spec = parse_epsilon(eps)
        if isinstance(spec, Mapping):
            state = dict(spec)
        else:
            state = {DEFAULT_KEY: float(spec)}
        for gate, value in state.items():
            self._check_eps_entry(gate if gate != DEFAULT_KEY else None,
                                  value)
        return state

    def _check_eps_entry(self, gate: Optional[str], value: float) -> None:
        if gate is not None:
            node = self.circuit.node(gate)
            if not node.gate_type.is_logic:
                raise ValueError(
                    f"epsilon given for non-gate node {gate!r} "
                    "(inputs are noise-free in the BSC model)")
        if not 0.0 <= float(value) <= 0.5:
            raise ValueError(
                f"epsilon[{gate!r}] = {value} outside [0, 0.5]")

    # -- eps state ------------------------------------------------------
    def current_eps(self) -> Dict[str, float]:
        """The live failure-probability map (``"default"`` key included)."""
        return dict(self._eps)

    # -- edit application ----------------------------------------------
    def apply(self, edit) -> EditReport:
        """Apply one edit (typed record or its dict form); see module doc."""
        edit = parse_edit(edit)
        with trace_span("incremental.apply", circuit=self.circuit.name,
                        kind=edit.kind):
            if isinstance(edit, SetEps):
                report = self._apply_set_eps(edit)
            elif isinstance(edit, SwapGate):
                report = self._apply_swap(edit)
            elif isinstance(edit, AddGate):
                report = self._apply_add(edit)
            elif isinstance(edit, RemoveGate):
                report = self._apply_remove(edit)
            else:
                report = self._apply_triplicate(edit)
        self._edit_log.append(edit)
        if obs_metrics.is_enabled():
            labels = {"circuit": self.circuit.name, "kind": edit.kind}
            obs_metrics.inc("incremental.edits", **labels)
            obs_metrics.set_gauge("incremental.dirty_nodes",
                                  report.dirty_nodes, **labels)
            obs_metrics.inc("incremental.reweighted_gates",
                            report.reweighted_gates, **labels)
            for plan, decision in report.plans.items():
                obs_metrics.inc("incremental.plan_decisions", plan=plan,
                                decision=decision,
                                circuit=self.circuit.name)
        return report

    @property
    def edit_log(self) -> List[Edit]:
        """The edits applied so far, in order (a copy)."""
        return list(self._edit_log)

    @property
    def revision(self) -> int:
        """Edits applied so far; every state change is an applied edit."""
        return len(self._edit_log)

    # -- individual edit kinds -----------------------------------------
    def _apply_set_eps(self, edit: SetEps) -> EditReport:
        self._check_eps_entry(edit.gate, edit.eps)
        self._eps[edit.gate if edit.gate is not None
                  else DEFAULT_KEY] = float(edit.eps)
        plans = {_PLAN_NAMES[m]: ("reused" if self._built(m) else "unbuilt")
                 for m in (False, True)}
        return EditReport(kind=edit.kind, dirty_nodes=0, reweighted_gates=0,
                          plans=plans)

    def _apply_swap(self, edit: SwapGate) -> EditReport:
        node = self.circuit.node(edit.gate)
        if not node.gate_type.is_logic:
            raise CircuitError(f"cannot swap non-gate node {edit.gate!r}")
        fanins = node.fanins if edit.fanins is None else tuple(edit.fanins)
        type_only = fanins == node.fanins
        if type_only and edit.gate_type is node.gate_type:
            plans = {_PLAN_NAMES[m]:
                     ("reused" if self._built(m) else "unbuilt")
                     for m in (False, True)}
            return EditReport(kind=edit.kind, dirty_nodes=0,
                              reweighted_gates=0, plans=plans)
        replacement = Node(edit.gate, edit.gate_type, fanins)
        new_circuit = self._rebuild(replace={edit.gate: replacement})
        dirty = self._transitive_fanout(new_circuit, [edit.gate])

        self._commit(new_circuit)
        self._resimulate(dirty)
        reweight = set(dirty)
        if type_only:
            reweight.discard(edit.gate)  # own fanins (and packs) unchanged
        self._reweight(reweight)

        plans: Dict[str, str] = {}
        for mode in (False, True):
            if not self._built(mode):
                decision = "unbuilt"
            elif type_only and self._plans[mode].patch_weights(
                    self.circuit, self._weights,
                    changed_gates=sorted(reweight),
                    retruthed_gates=[edit.gate]):
                decision = "patched"
            else:
                decision = "relowered"
            if decision != "patched":
                self._plans[mode] = _UNBUILT
            plans[_PLAN_NAMES[mode]] = decision
        if not type_only:
            self._pair_structure = None  # supports changed with the rewire
        return EditReport(kind=edit.kind, dirty_nodes=len(dirty),
                          reweighted_gates=len(reweight), plans=plans)

    def _apply_add(self, edit: AddGate) -> EditReport:
        if not edit.gate_type.is_logic:
            raise CircuitError(
                f"add_gate requires a logic gate type, got "
                f"{edit.gate_type.value!r}")
        if edit.eps is not None:
            self._check_eps_entry(None, edit.eps)
        new_circuit = self._rebuild(
            append=[Node(edit.name, edit.gate_type, tuple(edit.fanins))],
            extra_outputs=[edit.name] if edit.output else ())
        plans = self._drop_plans_structural()
        self._commit(new_circuit)
        self._resimulate([edit.name])
        self._reweight([edit.name])
        if edit.eps is not None:
            self._eps[edit.name] = float(edit.eps)
        return EditReport(kind=edit.kind, dirty_nodes=1, reweighted_gates=1,
                          plans=plans)

    def _apply_remove(self, edit: RemoveGate) -> EditReport:
        node = self.circuit.node(edit.gate)
        if not node.gate_type.is_logic:
            raise CircuitError(f"cannot remove non-gate node {edit.gate!r}")
        if self.circuit.fanouts(edit.gate):
            raise CircuitError(
                f"cannot remove gate {edit.gate!r}: it still drives "
                f"{list(self.circuit.fanouts(edit.gate))}")
        if edit.gate in self.circuit.outputs:
            raise CircuitError(
                f"cannot remove gate {edit.gate!r}: it is a primary output")
        new_circuit = self._rebuild(drop={edit.gate})
        plans = self._drop_plans_structural()
        self._commit(new_circuit)
        del self._values[edit.gate]
        del self._weights.weights[edit.gate]
        del self._weights.signal_prob[edit.gate]
        self._eps.pop(edit.gate, None)
        return EditReport(kind=edit.kind, dirty_nodes=0, reweighted_gates=0,
                          plans=plans)

    def _apply_triplicate(self, edit: Triplicate) -> EditReport:
        if not edit.gates:
            raise ValueError("triplicate needs at least one gate")
        if edit.voter_eps is not None:
            self._check_eps_entry(None, edit.voter_eps)
        protected = list(dict.fromkeys(edit.gates))
        old_eps = {g: epsilon_of(self._eps, g) for g in protected}
        roles: Dict[str, tuple] = {}
        new_circuit = triplicate_gates(self.circuit, protected,
                                       name=self.circuit.name, roles=roles)
        plans = self._drop_plans_structural()
        self._commit(new_circuit)
        # The voter reclaiming each protected name computes the identical
        # function, so its recomputed pack is bit-equal to the old one and
        # nothing downstream of the TMR islands is dirty.
        touched = [n for n in new_circuit.topological_order() if n in roles]
        self._resimulate(touched)
        self._reweight(touched)
        for node_name, (role, prot) in roles.items():
            if role == "voter" and edit.voter_eps is not None:
                self._eps[node_name] = float(edit.voter_eps)
            else:
                self._eps[node_name] = old_eps[prot]
        return EditReport(kind=edit.kind, dirty_nodes=len(touched),
                          reweighted_gates=len(touched), plans=plans)

    # -- dirty-cone machinery ------------------------------------------
    def _rebuild(self, replace: Optional[Mapping[str, Node]] = None,
                 drop: Iterable[str] = (),
                 append: Sequence[Node] = (),
                 extra_outputs: Sequence[str] = ()) -> Circuit:
        """Re-enter the netlist through the public Circuit API.

        Rebuilding (rather than mutating in place) makes every edit pass
        the same construction-time validation as a parsed netlist: fanins
        must precede their gate, arities must match, names are unique.
        Raises before any workspace state changes.
        """
        dropped = set(drop)
        out = Circuit(self.circuit.name)
        for node in self.circuit:
            if node.name in dropped:
                continue
            node = (replace or {}).get(node.name, node)
            if node.gate_type.is_input:
                out.add_input(node.name)
            elif node.gate_type.is_constant:
                out.add_const(
                    node.name,
                    1 if node.gate_type is GateType.CONST1 else 0)
            else:
                out.add_gate(node.name, node.gate_type, node.fanins)
        for node in append:
            out.add_gate(node.name, node.gate_type, node.fanins)
        for o in self.circuit.outputs:
            if o not in dropped:
                out.set_output(o)
        for o in extra_outputs:
            out.set_output(o)
        out.validate()
        return out

    def _commit(self, new_circuit: Circuit) -> None:
        """Adopt the rebuilt circuit; cached analyzers/models are stale."""
        self.circuit = new_circuit
        self._analyzers = {}
        self._closed = {}

    @staticmethod
    def _transitive_fanout(circuit: Circuit,
                           roots: Iterable[str]) -> Set[str]:
        dirty = set(roots)
        stack = list(dirty)
        while stack:
            for fo in circuit.fanouts(stack.pop()):
                if fo not in dirty:
                    dirty.add(fo)
                    stack.append(fo)
        return dirty

    def _resimulate(self, dirty: Iterable[str]) -> None:
        """Recompute the packs of the dirty cone, in topological order."""
        dirty = set(dirty)
        order = [n for n in self.circuit.topological_order() if n in dirty]
        with trace_span("incremental.resimulate", nodes=len(order)):
            for name in order:
                node = self.circuit.node(name)
                self._values[name] = evaluate_gate_words(
                    node.gate_type,
                    [self._values[f] for f in node.fanins], self._n_words)
            for name in order:
                self._weights.signal_prob[name] = (
                    patterns.masked_popcount(self._values[name],
                                             self.n_patterns)
                    / self.n_patterns)

    def _reweight(self, gates: Iterable[str]) -> None:
        """Recount the weight vectors of gates with changed fanin packs.

        The dirty gates go through ``_weights_from_packs``'s own
        subset-AND + Möbius core, over a stack of just their fanin packs,
        so the integer counts and the float vectors are bit-identical to
        a from-scratch count — the foundation of the from-scratch parity
        guarantee.
        """
        gates = list(gates)
        with trace_span("incremental.reweight", gates=len(gates)):
            step = max(1, _REWEIGHT_BATCH_WORDS // self._n_words)
            for start in range(0, len(gates), step):
                batch = gates[start:start + step]
                fanins = list(dict.fromkeys(
                    fi for gate in batch for fi in self.circuit.fanins(gate)))
                fresh, _ = _count_weights(self.circuit, batch, self._values,
                                          fanins, self.n_patterns)
                for gate in batch:
                    self._weights.weights[gate] = fresh[gate]

    # -- plan maintenance ----------------------------------------------
    def _built(self, mode: bool) -> bool:
        plan = self._plans.get(mode, _UNBUILT)
        return plan is not _UNBUILT and plan is not None

    def _drop_plans_structural(self) -> Dict[str, str]:
        """Node-set-changing edit: both plans re-lower, structure drops."""
        plans = {_PLAN_NAMES[m]:
                 ("relowered" if self._built(m) else "unbuilt")
                 for m in (False, True)}
        self._plans = {}
        self._pair_structure = None
        return plans

    def _ensure_plan(self, mode: bool):
        """The lowered plan for one mode, (re)building it lazily.

        Returns ``None`` when the circuit cannot be lowered (the analyzer
        then runs the scalar pass over the maintained weights).  A
        correlated re-lowering after a type-only swap reuses the retained
        :class:`PairStructure` — supports, topological positions, and
        levels are untouched by such an edit.
        """
        plan = self._plans.get(mode, _UNBUILT)
        if plan is not _UNBUILT:
            return plan
        try:
            if mode:
                plan = CompiledCorrelatedPass(
                    self.circuit, self._weights,
                    input_errors=self.input_errors,
                    max_pairs=self.max_correlation_pairs,
                    max_level_gap=self.max_correlation_level_gap,
                    structure=self._pair_structure)
                self._pair_structure = plan.structure
            else:
                plan = CompiledSinglePass(self.circuit, self._weights,
                                          input_errors=self.input_errors)
        except CompiledPassUnsupported as exc:
            plan = None
            self._plan_reasons[mode] = str(exc)
        self._plans[mode] = plan
        return plan

    # -- analysis surface ----------------------------------------------
    def analyzer(self, use_correlation: Optional[bool] = None
                 ) -> SinglePassAnalyzer:
        """A single-pass analyzer wired to the workspace's live artifacts.

        The analyzer shares the workspace's weight data and its lowered
        plan (patched or re-lowered as the edit log dictates); it is
        rebuilt whenever an edit replaces the circuit.
        """
        mode = bool(self.use_correlation if use_correlation is None
                    else use_correlation)
        analyzer = self._analyzers.get(mode)
        if analyzer is None:
            analyzer = SinglePassAnalyzer(
                self.circuit, weights=self._weights, use_correlation=mode,
                input_errors=self.input_errors,
                max_correlation_pairs=self.max_correlation_pairs,
                max_correlation_level_gap=self.max_correlation_level_gap,
                compiled=self.compiled)
            self._analyzers[mode] = analyzer
        if self.compiled != "off":
            plan = self._ensure_plan(mode)
            analyzer._plan = plan
            analyzer._plan_unsupported = plan is None
            analyzer.plan_unsupported_reason = (
                None if plan is not None else self._plan_reasons.get(mode))
        return analyzer

    def analyze(self, eps: Optional[EpsilonSpec] = None,
                eps10: Optional[EpsilonSpec] = None,
                use_correlation: Optional[bool] = None) -> SinglePassResult:
        """One single-pass run; ``eps=None`` uses the workspace eps state."""
        spec = self.current_eps() if eps is None else eps
        return self.analyzer(use_correlation).run(spec, eps10)

    def sweep(self, eps_values: Sequence[EpsilonSpec],
              eps10_values: Optional[Sequence[EpsilonSpec]] = None,
              use_correlation: Optional[bool] = None):
        """A multi-point sweep over the workspace's live artifacts."""
        return self.analyzer(use_correlation).sweep(eps_values,
                                                    eps10_values)

    def closed_form(self, output: Optional[str] = None,
                    n_patterns: int = 1 << 12):
        """Closed-form observability model of the *current* circuit.

        Cached per output; edits that change the circuit invalidate the
        cache (observabilities are structural, not eps-dependent).
        """
        model = self._closed.get(output)
        if model is None:
            with trace_span("incremental.closed_form",
                            circuit=self.circuit.name):
                if output is None and len(self.circuit.outputs) > 1:
                    model = MultiOutputObservabilityModel(
                        self.circuit, n_patterns=n_patterns, seed=self.seed)
                else:
                    model = ObservabilityModel(
                        self.circuit, output=output, n_patterns=n_patterns,
                        seed=self.seed)
            self._closed[output] = model
        return model

    @property
    def weights(self) -> WeightData:
        """The live weight vectors / signal probabilities (read-only use)."""
        return self._weights

    # -- branching ------------------------------------------------------
    def fork(self) -> "CircuitWorkspace":
        """An independent workspace continuing from the current state.

        Packs and weight vectors are shared structurally (both sides
        replace entries wholesale, never mutate arrays in place), so a
        fork is O(nodes) dict copying.  Compiled plans are *not* shared —
        in-place patching in one branch must not corrupt the other — but
        the :class:`PairStructure` is (it is immutable and still valid
        for the identical circuit).
        """
        ws = CircuitWorkspace.__new__(CircuitWorkspace)
        ws.circuit = self.circuit.copy()
        ws.input_probs = dict(self.input_probs) if self.input_probs else None
        ws.input_errors = dict(self.input_errors)
        ws.use_correlation = self.use_correlation
        ws.max_correlation_pairs = self.max_correlation_pairs
        ws.max_correlation_level_gap = self.max_correlation_level_gap
        ws.compiled = self.compiled
        ws.seed = self.seed
        ws.weight_method = self.weight_method
        ws.n_patterns = self.n_patterns
        ws._n_words = self._n_words
        ws._values = dict(self._values)
        ws._weights = WeightData(weights=dict(self._weights.weights),
                                 signal_prob=dict(self._weights.signal_prob),
                                 source=self._weights.source)
        ws._eps = dict(self._eps)
        ws._plans = {}
        ws._plan_reasons = {}
        ws._pair_structure = self._pair_structure
        ws._analyzers = {}
        ws._closed = {}
        ws._edit_log = list(self._edit_log)
        return ws

    # -- persistence ----------------------------------------------------
    def to_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Serialize the live state into ``(manifest, arrays)``.

        The manifest is JSON-safe metadata — the mutated netlist, the
        estimator parameters, the eps state, and the typed edit log in its
        :func:`~repro.incremental.edits.edit_to_dict` wire form.  The
        arrays carry the bulk artifacts: the retained simulation packs
        (truncated to the live word count) and the weight vectors and
        signal probabilities as
        :func:`~repro.probability.weights.flatten_weights` lays them out.
        Compiled plans are *not* serialized: they re-lower
        deterministically from the restored weights (and the correlated
        plan's pair table is a ``corrplan`` entry of :mod:`repro.store`), so
        :meth:`from_state` round-trips to a workspace whose analyses are
        bit-identical without persisting kernel internals.
        """
        pack_nodes = list(self._values)
        manifest: Dict[str, Any] = {
            "circuit": {
                "name": self.circuit.name,
                "nodes": [[node.name, node.gate_type.value,
                           list(node.fanins)] for node in self.circuit],
                "outputs": list(self.circuit.outputs),
            },
            "structural_hash": structural_hash(self.circuit),
            "weight_method": self.weight_method,
            "weights_source": self._weights.source,
            "n_patterns": int(self.n_patterns),
            "n_words": int(self._n_words),
            "seed": int(self.seed),
            "input_probs": sorted((self.input_probs or {}).items()),
            "input_errors": {str(k): (list(v) if isinstance(v, tuple)
                                      else v)
                             for k, v in self.input_errors.items()},
            "use_correlation": self.use_correlation,
            "max_correlation_pairs": int(self.max_correlation_pairs),
            "max_correlation_level_gap": self.max_correlation_level_gap,
            "compiled": self.compiled,
            "eps": {str(k): float(v) for k, v in self._eps.items()},
            "edit_log": [edit_to_dict(e) for e in self._edit_log],
            "pack_nodes": pack_nodes,
            "weight_gates": list(self._weights.weights),
            "prob_nodes": list(self._weights.signal_prob),
        }
        arrays = dict(flatten_weights(self._weights), packs=(
            np.stack([np.asarray(self._values[n][:self._n_words],
                                 dtype=np.uint64) for n in pack_nodes])
            if pack_nodes
            else np.empty((0, self._n_words), dtype=np.uint64)))
        return manifest, arrays

    @classmethod
    def from_state(cls, manifest: Mapping[str, Any],
                   arrays: Mapping[str, np.ndarray]) -> "CircuitWorkspace":
        """Rebuild a workspace from :meth:`to_state` output.

        The netlist is re-entered through the public ``Circuit`` API (the
        same validation path as a parsed file) and cross-checked against
        the recorded structural hash; array layouts are validated before
        any state is adopted.  Raises :class:`ValueError` on any mismatch
        — callers treating persisted state as a cache should catch it and
        fall back to a cold build.
        """
        spec = manifest["circuit"]
        circuit = Circuit(spec["name"])
        for name, type_value, fanins in spec["nodes"]:
            gate_type = GateType(type_value)
            if gate_type.is_input:
                circuit.add_input(name)
            elif gate_type.is_constant:
                circuit.add_const(
                    name, 1 if gate_type is GateType.CONST1 else 0)
            else:
                circuit.add_gate(name, gate_type, fanins)
        for o in spec["outputs"]:
            circuit.set_output(o)
        circuit.validate()
        if structural_hash(circuit) != manifest["structural_hash"]:
            raise ValueError("workspace state: structural hash mismatch")

        n_words = int(manifest["n_words"])
        pack_nodes = [str(n) for n in manifest["pack_nodes"]]
        packs = np.asarray(arrays["packs"], dtype=np.uint64)
        if packs.shape != (len(pack_nodes), n_words):
            raise ValueError("workspace state: pack layout mismatch")
        weights = unflatten_weights(
            [str(g) for g in manifest["weight_gates"]],
            [str(n) for n in manifest["prob_nodes"]], arrays,
            str(manifest["weights_source"]))

        ws = cls.__new__(cls)
        ws.circuit = circuit
        input_probs = {str(k): float(v)
                       for k, v in (manifest.get("input_probs") or [])}
        ws.input_probs = input_probs or None
        ws.input_errors = {
            str(k): (tuple(v) if isinstance(v, (list, tuple)) else v)
            for k, v in (manifest.get("input_errors") or {}).items()}
        ws.use_correlation = bool(manifest["use_correlation"])
        ws.max_correlation_pairs = int(manifest["max_correlation_pairs"])
        gap = manifest["max_correlation_level_gap"]
        ws.max_correlation_level_gap = None if gap is None else int(gap)
        ws.compiled = str(manifest["compiled"])
        ws.seed = int(manifest["seed"])
        ws.weight_method = str(manifest["weight_method"])
        ws.n_patterns = int(manifest["n_patterns"])
        ws._n_words = n_words
        ws._values = {n: packs[i].copy() for i, n in enumerate(pack_nodes)}
        ws._weights = weights
        ws._eps = {str(k): float(v) for k, v in manifest["eps"].items()}
        ws._plans = {}
        ws._plan_reasons = {}
        ws._pair_structure = None
        ws._analyzers = {}
        ws._closed = {}
        ws._edit_log = [parse_edit(d) for d in manifest["edit_log"]]
        return ws

    def __repr__(self) -> str:
        return (f"CircuitWorkspace({self.circuit.name!r}: "
                f"{self.circuit.num_gates} gates, "
                f"{len(self._edit_log)} edits applied)")
