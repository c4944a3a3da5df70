"""Per-circuit analysis sessions: everything eps-independent, kept hot.

The paper's central split is between what depends on the failure
probabilities (one cheap pass) and what does not (weights, correlation
pair discovery, observabilities — all computable once per circuit).  A
:class:`CircuitSession` is the in-memory embodiment of the eps-independent
half: the parsed :class:`~repro.circuit.Circuit`, its
:class:`~repro.probability.weights.WeightData`, the lowered compiled plans
(independence *and* correlated), and the lazily built closed-form /
consolidated models, all behind one object the
:class:`~repro.engine.core.AnalysisEngine` keeps in an LRU registry.

The existing ``weight_cache`` disk tier is the backing store: a session
constructed with ``weights_cache_dir`` set loads (and pins) its weight
entry through :mod:`repro.probability.weight_cache`, so a recycled session
warms back up from disk instead of re-estimating.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..circuit import Circuit, SequentialCircuit, unroll
from ..circuits import get_benchmark, get_sequential_benchmark
from ..incremental import CircuitWorkspace, EditReport, parse_edit
from ..io import load_bench, load_blif
from ..obs import trace_span
from ..probability.weight_cache import (
    memory_tier,
    pin_weights,
    structural_hash,
)
from ..probability.weights import WeightData, compute_weights
from ..reliability.closed_form import (
    MultiOutputObservabilityModel,
    ObservabilityModel,
)
from ..reliability.consolidated import ConsolidatedAnalyzer
from ..reliability.single_pass import SinglePassAnalyzer

#: What callers may hand to the engine as "a circuit".
CircuitRef = Union[str, Circuit, SequentialCircuit]


def resolve_circuit(ref: CircuitRef) -> Union[Circuit, SequentialCircuit]:
    """Turn a circuit reference into a circuit object.

    Accepts a ready :class:`Circuit` / :class:`SequentialCircuit`, a
    netlist path (``.bench`` / ``.blif``), or a built-in benchmark name
    (combinational catalog first, then the sequential fixtures).  Netlist
    files declaring DFF/LATCH elements resolve to a
    :class:`SequentialCircuit`.  Raises :class:`ValueError` for anything
    else — the serve loop converts that into an error envelope instead of
    dying.
    """
    if isinstance(ref, (Circuit, SequentialCircuit)):
        return ref
    path = Path(ref)
    if path.exists():
        if path.suffix == ".bench":
            return load_bench(path)
        if path.suffix == ".blif":
            return load_blif(path)
        raise ValueError(f"unsupported netlist extension: {path.suffix}")
    try:
        return get_benchmark(ref)
    except KeyError:
        pass
    try:
        return get_sequential_benchmark(ref)
    except KeyError:
        raise ValueError(
            f"{ref!r} is neither a file nor a known benchmark "
            f"(try: repro bench)") from None


def resolve_analysis_circuit(ref: CircuitRef,
                             frames: Optional[int] = None) -> Circuit:
    """Resolve a reference to the combinational circuit a session analyzes.

    Sequential circuits must come with a frame count: they are unrolled
    into ``frames`` time frames (:func:`repro.circuit.unroll`), and a
    sequential reference without ``frames`` raises a clear
    :class:`ValueError` instead of failing deep inside the analyzer.
    Combinational circuits pass through untouched when ``frames`` is None
    (the default — nothing changes for existing callers); with ``frames``
    set they go through the same unroll transform (``frames=1`` is the
    structural identity).
    """
    resolved = resolve_circuit(ref)
    if isinstance(resolved, SequentialCircuit):
        if frames is None:
            raise ValueError(
                f"circuit {resolved.name!r} is sequential "
                f"({resolved.num_flops} flops): pass frames=k to unroll "
                f"it into k time frames, e.g. repro.analyze(..., frames=4) "
                f"or repro analyze --frames 4")
        return unroll(resolved, frames)
    if frames is not None:
        return unroll(resolved, frames)
    return resolved


#: Integer session options and their smallest accepted value (``None``
#: means any integer).  A negative level gap or pair budget would
#: silently drop every correlation pair instead of failing the request.
_INT_MINIMUM: Dict[str, Optional[int]] = {
    "n_patterns": 1,
    "seed": None,
    "max_correlation_pairs": 0,
    "max_correlation_level_gap": 0,
}


def _checked_int(key: str, value: Any, minimum: Optional[int]) -> int:
    """``value`` as an int, or a :class:`ValueError` naming option ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{key} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class SessionConfig:
    """The eps-independent knobs that key a session.

    Two requests with the same circuit structure and the same
    :class:`SessionConfig` may share one session — everything here feeds
    the weight estimator, the correlation-plan budget, or the kernel
    choice, and nothing here varies per query.
    """

    weight_method: str = "auto"
    n_patterns: int = 1 << 16
    seed: int = 0
    input_probs: Optional[Tuple[Tuple[str, float], ...]] = None
    max_correlation_pairs: int = 1_000_000
    max_correlation_level_gap: Optional[int] = None
    compiled: str = "auto"
    weights_cache_dir: Optional[str] = None
    #: Time-frame count for sequential circuits (None = combinational).
    #: Part of the session key: ``(circuit, frames)`` pairs get distinct
    #: sessions, since the unrolled netlists differ structurally.
    frames: Optional[int] = None
    #: Optional primary-output subset (None = all outputs).  The session's
    #: analyzers restrict to the union cone and its weights come from a
    #: lazy per-cone store — the large-netlist path (docs/scaling.md).
    #: Part of the session key, so restricted and full sessions never mix.
    outputs: Optional[Tuple[str, ...]] = None

    #: Option names :meth:`from_options` understands (plus aliases).
    FIELDS = ("weight_method", "n_patterns", "seed", "input_probs",
              "max_correlation_pairs", "max_correlation_level_gap",
              "compiled", "weights_cache_dir", "frames", "outputs")

    @classmethod
    def from_options(cls, options: Mapping[str, Any]) -> "SessionConfig":
        """Build a config from a loose options mapping (CLI/JSON friendly).

        Accepts the dataclass field names plus the CLI's historical
        aliases ``weights`` (→ ``weight_method``) and ``level_gap``
        (→ ``max_correlation_level_gap``).  Unknown keys raise
        :class:`ValueError` so typos in request files surface instead of
        silently running with defaults, and so do non-integer or
        out-of-range integer options.
        """
        aliases = {"weights": "weight_method",
                   "level_gap": "max_correlation_level_gap"}
        kwargs: Dict[str, Any] = {}
        for key, value in options.items():
            name = aliases.get(key, key)
            if name not in cls.FIELDS:
                raise ValueError(f"unknown session option {key!r}")
            if name == "input_probs" and value is not None:
                value = tuple(sorted(dict(value).items()))
            if name == "frames" and value is not None:
                value = int(value)
                if value < 1:
                    raise ValueError(f"frames must be >= 1, got {value}")
            if name in _INT_MINIMUM and value is not None:
                value = _checked_int(key, value, _INT_MINIMUM[name])
            if name == "outputs" and value is not None:
                if isinstance(value, str):
                    value = [value]
                value = tuple(sorted(dict.fromkeys(value)))
                if not value:
                    raise ValueError(
                        "outputs subset must name at least one output")
            kwargs[name] = value
        return cls(**kwargs)

    def analyzer_kwargs(self) -> Dict[str, Any]:
        return {
            "weight_method": self.weight_method,
            "n_patterns": self.n_patterns,
            "seed": self.seed,
            "input_probs": dict(self.input_probs) if self.input_probs
            else None,
            "max_correlation_pairs": self.max_correlation_pairs,
            "max_correlation_level_gap": self.max_correlation_level_gap,
            "compiled": self.compiled,
            "weights_cache_dir": self.weights_cache_dir,
            "frames": self.frames,
            "outputs": list(self.outputs) if self.outputs else None,
        }


@dataclass
class CircuitSession:
    """One circuit's hot analysis state (weights, plans, models).

    Everything is lazy: the session costs nothing until the first query
    needs a particular artifact, after which it stays resident for the
    session's lifetime.  Sessions are read-mostly and safe to reuse across
    sequential requests; the engine serializes access per session.
    """

    circuit: Circuit
    config: SessionConfig = field(default_factory=SessionConfig)
    #: Extra analyzer kwargs that bypass the registry (e.g. explicit
    #: ``weights=``/``input_errors=``); sessions carrying them are
    #: transient and never cached.
    extra_analyzer_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.created_at = time.monotonic()
        self.queries = 0
        self._weights: Optional[WeightData] = None
        self._analyzers: Dict[bool, SinglePassAnalyzer] = {}
        self._closed: Dict[Optional[str], Any] = {}
        self._consolidated: Optional[ConsolidatedAnalyzer] = None
        self._pin_path: Optional[str] = None
        self._workspace: Optional[CircuitWorkspace] = None

    # -- identity -------------------------------------------------------
    @property
    def structural_key(self) -> str:
        if not hasattr(self, "_structural_key"):
            self._structural_key = structural_hash(self.circuit)
        return self._structural_key

    # -- warmth probes --------------------------------------------------
    @property
    def weights_ready(self) -> bool:
        """True once weight vectors exist without needing computation."""
        return (self._weights is not None
                or "weights" in self.extra_analyzer_kwargs)

    def plan_ready(self, use_correlation: bool = True) -> bool:
        """True once an analyzer (and its plan) exists for this mode."""
        if self._workspace is not None:
            return True
        return bool(self._analyzers.get(bool(use_correlation)))

    @property
    def workspace_ready(self) -> bool:
        """True once the incremental edit workspace has been built."""
        return self._workspace is not None

    # -- artifacts ------------------------------------------------------
    @property
    def weights(self) -> WeightData:
        """The session's weight vectors (computed once, disk-backed)."""
        if "weights" in self.extra_analyzer_kwargs:
            return self.extra_analyzer_kwargs["weights"]
        if self._weights is None:
            cfg = self.config
            if cfg.outputs:
                # Restricted session: a lazy store so only the selected
                # cone is ever materialized; the analyzer restricts it.
                from ..scale import LazyWeightData
                self._weights = LazyWeightData(
                    self.circuit, method=cfg.weight_method,
                    n_patterns=cfg.n_patterns, seed=cfg.seed,
                    input_probs=dict(cfg.input_probs)
                    if cfg.input_probs else None,
                    cache_dir=cfg.weights_cache_dir)
                return self._weights
            with trace_span("engine.session.weights",
                            circuit=self.circuit.name):
                self._weights = compute_weights(
                    self.circuit, method=cfg.weight_method,
                    n_patterns=cfg.n_patterns, seed=cfg.seed,
                    input_probs=dict(cfg.input_probs)
                    if cfg.input_probs else None,
                    cache_dir=cfg.weights_cache_dir)
        return self._weights

    def analyzer(self, use_correlation: bool = True) -> SinglePassAnalyzer:
        """The session's single-pass analyzer for one correlation mode.

        Both modes share the session's weight vectors; each holds its own
        lowered compiled plan (correlated vs independence kernel).  Once
        the session has been edited (see :meth:`apply_edits`), analyzers
        come from the incremental workspace instead, so they track the
        mutated circuit without recomputing warm state.
        """
        use_correlation = bool(use_correlation)
        if self._workspace is not None:
            analyzer = self._workspace.analyzer(use_correlation)
            if analyzer.frames != self.config.frames:
                # frames is pure result metadata, so stamping it onto the
                # workspace's analyzer keeps payload parity with the
                # non-workspace path without touching any numerics.
                analyzer.frames = self.config.frames
            return analyzer
        analyzer = self._analyzers.get(use_correlation)
        if analyzer is None:
            kwargs = self.config.analyzer_kwargs()
            kwargs.update(self.extra_analyzer_kwargs)
            kwargs.setdefault("weights", self.weights)
            analyzer = SinglePassAnalyzer(
                self.circuit, use_correlation=use_correlation, **kwargs)
            self._analyzers[use_correlation] = analyzer
        return analyzer

    def closed_form(self, output: Optional[str] = None,
                    n_patterns: int = 1 << 12):
        """Closed-form observability model (one output, or all outputs).

        ``output=None`` on a multi-output circuit returns the
        :class:`MultiOutputObservabilityModel`; otherwise the single-output
        :class:`ObservabilityModel`.  Models are cached per output.
        """
        if self._workspace is not None:
            return self._workspace.closed_form(output, n_patterns)
        key = output
        model = self._closed.get(key)
        if model is None:
            with trace_span("engine.session.closed_form",
                            circuit=self.circuit.name):
                if output is None and len(self.circuit.outputs) > 1:
                    model = MultiOutputObservabilityModel(
                        self.circuit, n_patterns=n_patterns,
                        seed=self.config.seed)
                else:
                    model = ObservabilityModel(
                        self.circuit, output=output,
                        n_patterns=n_patterns, seed=self.config.seed)
            self._closed[key] = model
        return model

    # -- incremental edits ---------------------------------------------
    def workspace(self) -> CircuitWorkspace:
        """The session's incremental workspace, created on first use.

        The workspace takes over the session's analysis artifacts: once it
        exists, :meth:`analyzer` and :meth:`closed_form` serve from its
        incrementally maintained state.  ``weight_method="bdd"`` (possible
        via ``auto`` on wide circuits) cannot be maintained per-cone, so
        the workspace resolves ``auto`` to exhaustive/sampled estimation
        instead — see :class:`~repro.incremental.CircuitWorkspace`.
        """
        if self._workspace is None:
            cfg = self.config
            if cfg.outputs:
                raise ValueError(
                    "incremental edit sessions do not support an outputs= "
                    "restriction; open an unrestricted session to edit")
            method = (cfg.weight_method if cfg.weight_method != "bdd"
                      else "auto")
            with trace_span("engine.session.workspace",
                            circuit=self.circuit.name):
                self._workspace = CircuitWorkspace(
                    self.circuit,
                    weight_method=method,
                    n_patterns=cfg.n_patterns,
                    seed=cfg.seed,
                    input_probs=dict(cfg.input_probs)
                    if cfg.input_probs else None,
                    input_errors=self.extra_analyzer_kwargs.get(
                        "input_errors"),
                    max_correlation_pairs=cfg.max_correlation_pairs,
                    max_correlation_level_gap=cfg.max_correlation_level_gap,
                    compiled=cfg.compiled)
        return self._workspace

    def apply_edits(self, edits: Sequence[Any]) -> List[EditReport]:
        """Apply a batch of edits (typed records or their dict forms).

        The session adopts the mutated circuit; stale per-circuit caches
        (closed-form models, the consolidated analyzer, the structural
        key) are dropped, while the workspace keeps everything that the
        edits' dirty cones did not touch.
        """
        workspace = self.workspace()
        reports = [workspace.apply(parse_edit(edit)) for edit in edits]
        self.circuit = workspace.circuit
        self._analyzers = {}
        self._closed = {}
        self._consolidated = None
        if hasattr(self, "_structural_key"):
            del self._structural_key
        return reports

    def adopt_workspace(self, workspace: CircuitWorkspace) -> None:
        """Adopt a restored workspace as this session's live state.

        Used by the durable-state loader (``engine.load_state()``): the
        session takes over a :meth:`CircuitWorkspace.from_state` result as
        if every edit in its log had been applied here, so follow-up
        ``edit``/``reanalyze`` requests continue bit-identically.
        """
        self._workspace = workspace
        self.circuit = workspace.circuit
        self._analyzers = {}
        self._closed = {}
        self._consolidated = None
        if hasattr(self, "_structural_key"):
            del self._structural_key

    def consolidated(self) -> ConsolidatedAnalyzer:
        """Consolidated (any-output) analyzer over the correlated engine."""
        if self._consolidated is None:
            self._consolidated = ConsolidatedAnalyzer(
                self.circuit, analyzer=self.analyzer(True),
                seed=self.config.seed)
        return self._consolidated

    # -- lifecycle ------------------------------------------------------
    def touch(self) -> None:
        self.queries += 1

    def pin(self) -> None:
        """Exempt this session's weight-cache entry from memory eviction."""
        cfg = self.config
        if cfg.weights_cache_dir is None or self._pin_path is not None:
            return
        self._pin_path = pin_weights(
            cfg.weights_cache_dir, self.circuit, cfg.weight_method,
            cfg.n_patterns, cfg.seed,
            dict(cfg.input_probs) if cfg.input_probs else None)

    def unpin(self) -> None:
        if self._pin_path is not None:
            memory_tier().unpin(self._pin_path)
            self._pin_path = None
