"""Guard: disabled observability must not slow the single-pass hot path.

The instrumentation contract (docs/observability.md) is *zero cost when
disabled*: every span/counter entry point checks one module flag before
doing any work, and hot loops batch their reporting at phase granularity.
This benchmark enforces the contract so instrumentation can never silently
regress the paper's headline O(n) claim: it times the instrumented
single-pass analysis with observability disabled (the shipped default)
against the same analysis with the instrumentation hooks stubbed out to
literal no-ops (reconstructing the pre-instrumentation hot path), and
asserts the difference is within 10%.

A second, tighter guard covers the engine's *always-on* per-request
accounting (the ``telemetry`` envelope block and the ``EngineStats``
rolling window, docs/observability.md): those run on every warm-path
request regardless of the obs flags, so they get their own budget —
under 2% vs the same engine with the accounting stubbed out.

Min-of-N timing is used (robust against scheduler noise); the comparison
is relative, on the same interpreter, same circuit, same weights.
"""

import contextlib
import json
import time

from repro import obs
from repro.circuit import circuit_stats
from repro.circuits import get_benchmark
from repro.engine import AnalysisEngine
from repro.engine.core import AnalysisEngine as _EngineClass
from repro.engine.stats import EngineStats
from repro.reliability import SinglePassAnalyzer
from repro.reliability import single_pass as sp_module

from conftest import LEVEL_GAP, RESULTS_DIR, write_result

#: Allowed slowdown of instrumented-but-disabled vs stripped hot path.
MAX_OVERHEAD = 1.10

#: Allowed slowdown from the always-on per-request telemetry counters
#: (envelope block + rolling stats) on the warm engine path.
MAX_WARM_OVERHEAD = 1.02

_REPEATS = 9


def _best_seconds(fn, repeats=_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class _StubMetrics:
    """Stand-in for repro.obs.metrics with collection permanently off."""

    @staticmethod
    def is_enabled():
        return False


def test_disabled_obs_overhead_single_pass(monkeypatch):
    assert not obs.is_enabled(), "observability must default to off"
    circuit = get_benchmark("b9")  # mid-size: 210-gate Table 2 stand-in
    analyzer = SinglePassAnalyzer(circuit, weight_method="sampled",
                                  n_patterns=1 << 14,
                                  max_correlation_level_gap=LEVEL_GAP,
                                  seed=0)
    analyzer.run(0.1)  # warm caches (truth tables, allocator)

    # Instrumented, observability disabled — the shipped default.
    instrumented = _best_seconds(lambda: analyzer.run(0.1))

    # Strip the hooks to literal no-ops: this is the pre-instrumentation
    # hot path, reconstructed in-place.
    monkeypatch.setattr(sp_module, "trace_span",
                        lambda *a, **k: contextlib.nullcontext())
    monkeypatch.setattr(sp_module, "obs_metrics", _StubMetrics)
    stripped = _best_seconds(lambda: analyzer.run(0.1))
    monkeypatch.undo()

    overhead = instrumented / stripped if stripped > 0 else 1.0
    write_result(
        "obs_overhead.txt",
        "Instrumentation overhead guard (single-pass, b9, eps=0.1)\n"
        f"instrumented (obs disabled)  {instrumented * 1000:8.3f} ms\n"
        f"stripped no-op hooks         {stripped * 1000:8.3f} ms\n"
        f"overhead factor              {overhead:8.3f}x "
        f"(limit {MAX_OVERHEAD:.2f}x)")
    assert overhead <= MAX_OVERHEAD, (
        f"disabled-mode instrumentation overhead {overhead:.3f}x exceeds "
        f"{MAX_OVERHEAD:.2f}x: a span/counter hook is doing work while "
        f"observability is off")


def test_always_on_telemetry_overhead(monkeypatch):
    """The per-request telemetry counters stay under 2% on the warm path.

    Unlike spans, the envelope block and the rolling stats are populated
    on *every* request (obs flags or not), so they cannot hide behind
    the disabled-mode guard above.  Time a warm coalesced sweep with the
    accounting live vs stubbed to no-ops; each measured unit batches
    several submits so the ~µs-scale accounting is amortized against
    stable kernel time.
    """
    assert not obs.is_enabled(), "observability must default to off"
    request = {"op": "analyze", "circuit": "b9", "eps": [0.1],
               "options": {"weights": "sampled", "n_patterns": 1 << 12,
                           "level_gap": LEVEL_GAP, "seed": 0}}

    def batch(engine, n=10):
        for _ in range(n):
            assert engine.submit(request).ok

    with AnalysisEngine(max_sessions=4) as engine:
        batch(engine)  # warm the session, plans, allocator
        live = _best_seconds(lambda: batch(engine))

        monkeypatch.setattr(
            _EngineClass, "_attach_telemetry",
            lambda self, response, **kw: None)
        monkeypatch.setattr(EngineStats, "record",
                            lambda self, *a, **kw: None)
        batch(engine)  # settle after the patch
        stripped = _best_seconds(lambda: batch(engine))
        monkeypatch.undo()

        # Post-undo sanity: the accounting is live again.
        response = engine.submit(request)
        assert response.telemetry is not None

    overhead = live / stripped if stripped > 0 else 1.0
    write_result(
        "obs_warm_telemetry_overhead.txt",
        "Always-on telemetry overhead guard (warm engine, b9, eps=0.1)\n"
        f"live accounting              {live * 1000:8.3f} ms /10 submits\n"
        f"stubbed accounting           {stripped * 1000:8.3f} ms /10 submits\n"
        f"overhead factor              {overhead:8.3f}x "
        f"(limit {MAX_WARM_OVERHEAD:.2f}x)")
    assert overhead <= MAX_WARM_OVERHEAD, (
        f"always-on telemetry overhead {overhead:.3f}x exceeds "
        f"{MAX_WARM_OVERHEAD:.2f}x on the warm path: the per-request "
        f"accounting is doing more than counter arithmetic")


def test_sample_scrape_and_trace_artifacts():
    """Produce a sample Prometheus scrape and Chrome trace.

    CI uploads both files as workflow artifacts (see
    .github/workflows/ci.yml, benchmarks job) so every commit has an
    inspectable example of the exposition format and of one engine
    batch's trace.  The assertions keep the samples honest: real
    quantile series, and engine and kernel spans on one process track.
    """
    opts = {"weights": "sampled", "n_patterns": 1 << 10}
    obs.enable()
    try:
        obs.reset()
        requests = [{"op": "analyze", "circuit": name, "eps": [eps],
                     "options": opts}
                    for name in ("c17", "c432") for eps in (0.01, 0.05)]
        with AnalysisEngine(max_sessions=4) as engine:
            responses = engine.submit_many(requests)
            assert all(r.ok for r in responses)
            exposition = engine.prometheus()
        trace = obs.get_tracer().to_chrome_trace()
    finally:
        obs.disable()
        obs.reset()

    assert 'quantile="0.99"' in exposition
    events = trace["traceEvents"]
    assert {event["pid"] for event in events} == {1}, \
        "expected one process track"
    names = {event["name"] for event in events}
    assert any(n.startswith("engine.") for n in names), names
    assert any(n.startswith(("compiled_pass.", "single_pass."))
               for n in names), names

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "OBS_sample_scrape.prom").write_text(exposition)
    (RESULTS_DIR / "OBS_sample_trace.json").write_text(json.dumps(trace))


def test_enabled_obs_actually_collects():
    """Sanity: the same path produces spans + metrics when enabled."""
    circuit = get_benchmark("b9")
    analyzer = SinglePassAnalyzer(circuit, weight_method="sampled",
                                  n_patterns=1 << 12,
                                  max_correlation_level_gap=LEVEL_GAP,
                                  seed=0)
    obs.enable()
    try:
        obs.reset()
        analyzer.run(0.1)
        assert obs.get_tracer().find("single_pass.run")
        assert obs.metrics.get_registry().value(
            "single_pass.gates_processed",
            circuit=circuit.name) == circuit_stats(circuit).num_gates
    finally:
        obs.disable()
        obs.reset()
