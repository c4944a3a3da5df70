"""Tests for the observability subsystem (repro.obs)."""

import io
import json
import logging
import sys
import threading

import pytest

from repro import obs
from repro.circuits import c17
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger, verbosity_to_level


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestTraceSpans:
    def test_disabled_by_default_records_nothing(self):
        with obs.trace_span("x"):
            pass
        assert obs.get_tracer().spans == []

    def test_disabled_returns_shared_noop(self):
        a = obs.trace_span("a")
        b = obs.trace_span("b", k=1)
        assert a is b  # no allocation on the disabled path
        a.set(extra=1)  # and attrs are silently dropped

    def test_span_records_name_and_duration(self):
        obs.enable()
        with obs.trace_span("phase_one"):
            pass
        spans = obs.get_tracer().spans
        assert len(spans) == 1
        assert spans[0].name == "phase_one"
        assert spans[0].duration >= 0.0
        assert spans[0].depth == 0
        assert spans[0].parent is None

    def test_nesting_depth_and_parent(self):
        obs.enable()
        with obs.trace_span("outer"):
            with obs.trace_span("middle"):
                with obs.trace_span("inner"):
                    pass
        by_name = {s.name: s for s in obs.get_tracer().spans}
        assert by_name["outer"].depth == 0
        assert by_name["middle"].depth == 1
        assert by_name["middle"].parent == "outer"
        assert by_name["inner"].depth == 2
        assert by_name["inner"].parent == "middle"

    def test_inner_duration_within_outer(self):
        obs.enable()
        with obs.trace_span("outer"):
            with obs.trace_span("inner"):
                x = sum(range(1000))
        assert x == 499500
        by_name = {s.name: s for s in obs.get_tracer().spans}
        assert by_name["inner"].duration <= by_name["outer"].duration

    def test_attrs_and_set(self):
        obs.enable()
        with obs.trace_span("s", circuit="c17") as span:
            span.set(gates=6)
        (span,) = obs.get_tracer().spans
        assert span.attrs == {"circuit": "c17", "gates": 6}

    def test_span_recorded_on_exception(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.trace_span("failing"):
                raise ValueError("boom")
        assert [s.name for s in obs.get_tracer().spans] == ["failing"]
        # The stack unwound: the next span is top-level again.
        with obs.trace_span("after"):
            pass
        assert {s.depth for s in obs.get_tracer().spans} == {0}

    def test_reset_clears_spans(self):
        obs.enable()
        with obs.trace_span("x"):
            pass
        obs.reset()
        assert obs.get_tracer().spans == []

    def test_find_and_total(self):
        obs.enable()
        for _ in range(3):
            with obs.trace_span("repeated"):
                pass
        tracer = obs.get_tracer()
        assert len(tracer.find("repeated")) == 3
        assert tracer.total("repeated") == pytest.approx(
            sum(s.duration for s in tracer.find("repeated")))

    def test_phase_timings_sums_by_name(self):
        obs.enable()
        with obs.trace_span("a"):
            pass
        with obs.trace_span("a"):
            pass
        with obs.trace_span("b"):
            pass
        timings = obs.get_tracer().phase_timings()
        assert set(timings) == {"a", "b"}
        assert timings["a"] >= 0.0

    def test_threads_have_independent_stacks(self):
        obs.enable()
        done = threading.Event()

        def worker():
            with obs.trace_span("worker_span"):
                done.wait(1.0)

        with obs.trace_span("main_span"):
            t = threading.Thread(target=worker)
            t.start()
            done.set()
            t.join()
        by_name = {s.name: s for s in obs.get_tracer().spans}
        # The worker's span is NOT nested under the main thread's span.
        assert by_name["worker_span"].depth == 0
        assert by_name["worker_span"].parent is None
        assert (by_name["worker_span"].thread_id
                != by_name["main_span"].thread_id)

    def test_chrome_trace_export(self, tmp_path):
        obs.enable()
        with obs.trace_span("outer", circuit="c17"):
            with obs.trace_span("inner"):
                pass
        doc = obs.get_tracer().to_chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        for e in events:
            assert e["ph"] == "X"
            assert e["dur"] >= 0.0
        assert events[0]["args"] == {"circuit": "c17"}
        # Round-trip through the file writer.
        path = tmp_path / "trace.json"
        obs.get_tracer().write_chrome_trace(path)
        assert json.loads(path.read_text()) == doc

    def test_as_table_indents_by_depth(self):
        obs.enable()
        with obs.trace_span("outer"):
            with obs.trace_span("inner"):
                pass
        table = obs.get_tracer().as_table()
        assert "outer" in table and "  inner" in table


class TestMetrics:
    def test_disabled_convenience_functions_are_noops(self):
        obs_metrics.inc("c")
        obs_metrics.set_gauge("g", 1.5)
        obs_metrics.observe("h", 0.1)
        assert obs_metrics.snapshot() == []

    def test_counter_semantics(self):
        obs.enable()
        obs_metrics.inc("gates_processed")
        obs_metrics.inc("gates_processed", 5)
        assert obs_metrics.get_registry().value("gates_processed") == 6
        with pytest.raises(ValueError):
            obs_metrics.counter("gates_processed").inc(-1)

    def test_labeled_series_are_distinct(self):
        obs.enable()
        obs_metrics.inc("mc.samples", 100, circuit="c17")
        obs_metrics.inc("mc.samples", 200, circuit="b9")
        reg = obs_metrics.get_registry()
        assert reg.value("mc.samples", circuit="c17") == 100
        assert reg.value("mc.samples", circuit="b9") == 200

    def test_gauge_semantics(self):
        obs.enable()
        obs_metrics.set_gauge("mc.rel_stderr", 0.5)
        obs_metrics.set_gauge("mc.rel_stderr", 0.25)  # last write wins
        assert obs_metrics.get_registry().value("mc.rel_stderr") == 0.25
        g = obs_metrics.gauge("adjustable")
        g.add(2)
        g.add(-0.5)
        assert g.value == 1.5

    def test_histogram_semantics(self):
        obs.enable()
        h = obs_metrics.histogram("latency")
        for v in (0.5e-6, 5e-4, 5e-4, 2.0, 5000.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(0.5e-6 + 1e-3 + 2.0 + 5000.0)
        assert h.min == 0.5e-6 and h.max == 5000.0
        assert h.mean() == pytest.approx(h.sum / 5)
        d = h.to_dict()
        # Cumulative bucket counts are monotone and end at <= count.
        counts = [b["count"] for b in d["buckets"]]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # the 5000.0 observation overflows

    def test_type_conflict_rejected(self):
        obs.enable()
        obs_metrics.counter("x").inc()
        with pytest.raises(TypeError):
            obs_metrics.gauge("x")

    def test_snapshot_shape_and_reset(self):
        obs.enable()
        obs_metrics.inc("a", 3, circuit="c17")
        obs_metrics.set_gauge("b", 7.0)
        obs_metrics.observe("c", 0.01)
        snap = obs_metrics.snapshot()
        assert [s["name"] for s in snap] == ["a", "b", "c"]
        assert snap[0] == {"type": "counter", "name": "a",
                           "labels": {"circuit": "c17"}, "value": 3}
        assert snap[1]["type"] == "gauge" and snap[1]["value"] == 7.0
        assert snap[2]["type"] == "histogram" and snap[2]["count"] == 1
        json.dumps(snap)  # snapshot must be JSON-serializable
        obs_metrics.reset()
        assert obs_metrics.snapshot() == []

    def test_disabled_after_enable_stops_collection(self):
        obs.enable()
        obs_metrics.inc("x")
        obs.disable()
        obs_metrics.inc("x")
        assert obs_metrics.get_registry().value("x") == 1


class TestHistogramQuantile:
    def _hist(self, values):
        obs.enable()
        h = obs_metrics.histogram("q")
        for v in values:
            h.observe(v)
        return h

    def test_uniform_deciles(self):
        # 1..10 ms: known distribution, interpolated quantiles.
        h = self._hist([i / 1e3 for i in range(1, 11)])
        assert h.quantile(0.0) == pytest.approx(1e-3)
        assert h.quantile(0.5) == pytest.approx(5e-3, rel=0.05)
        assert h.quantile(1.0) == pytest.approx(1e-2)
        assert h.quantile(0.5) <= h.quantile(0.9) <= h.quantile(0.99)

    def test_single_value_is_exact_everywhere(self):
        h = self._hist([0.007])
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.007)

    def test_empty_histogram_returns_zero(self):
        h = self._hist([])
        assert h.quantile(0.5) == 0.0

    def test_overflow_bucket_returns_max(self):
        # Values beyond the last bound land in the overflow bucket.
        h = self._hist([5000.0, 6000.0, 7000.0])
        assert h.quantile(0.99) == pytest.approx(7000.0)

    def test_out_of_range_rejected(self):
        h = self._hist([1.0])
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_quantiles_bounded_by_min_max(self):
        h = self._hist([0.002, 0.004, 0.008, 0.3])
        for q in (0.1, 0.5, 0.9, 0.99):
            assert h.min <= h.quantile(q) <= h.max


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        obs.enable()
        obs_metrics.inc("engine.requests", 3, op="analyze")
        obs_metrics.set_gauge("engine.sessions", 2)
        text = obs_metrics.to_prometheus()
        assert "# TYPE repro_engine_requests_total counter" in text
        assert 'repro_engine_requests_total{op="analyze"} 3' in text
        assert "# TYPE repro_engine_sessions gauge" in text
        assert "repro_engine_sessions 2" in text
        assert text.endswith("\n")

    def test_histogram_cumulative_buckets(self):
        obs.enable()
        for v in (5e-4, 5e-4, 2.0, 5000.0):
            obs_metrics.observe("latency", v)
        text = obs_metrics.to_prometheus()
        assert "# TYPE repro_latency histogram" in text
        assert 'repro_latency_bucket{le="0.001"} 2' in text
        assert 'repro_latency_bucket{le="+Inf"} 4' in text
        assert "repro_latency_count 4" in text

    def test_label_escaping_and_name_sanitizing(self):
        obs.enable()
        obs_metrics.inc("odd-name.metric", 1, path='a"b\\c')
        text = obs_metrics.to_prometheus()
        assert 'repro_odd_name_metric_total{path="a\\"b\\\\c"} 1' in text

    def test_empty_registry_exports_empty(self):
        assert obs_metrics.to_prometheus() == ""


class TestEngineInstrumentation:
    def test_single_pass_spans_and_counters(self):
        from repro.reliability import SinglePassAnalyzer
        obs.enable()
        analyzer = SinglePassAnalyzer(c17())
        analyzer.run(0.05)  # default path: compiled correlated kernel
        SinglePassAnalyzer(c17(), compiled="off").run(0.05)  # scalar oracle
        tracer = obs.get_tracer()
        names = {s.name for s in tracer.spans}
        assert {"single_pass.weights", "single_pass.run",
                "compiled_pass.compile_correlated",
                "compiled_pass.run_sweep_correlated",
                "single_pass.topological_pass",
                "single_pass.per_output_delta"} <= names
        reg = obs_metrics.get_registry()
        assert reg.value("single_pass.gates_processed",
                         circuit="c17") == 12  # 6 compiled + 6 scalar
        assert reg.value("correlation.pairs_tracked", circuit="c17") > 0

    def test_disabled_single_pass_identical_result(self):
        from repro.reliability import SinglePassAnalyzer
        analyzer = SinglePassAnalyzer(c17())
        baseline = analyzer.run(0.05)
        obs.enable()
        instrumented = analyzer.run(0.05)
        obs.disable()
        assert instrumented.per_output == baseline.per_output
        assert obs_metrics.snapshot()  # metrics were collected
        assert obs.get_tracer().spans   # spans were collected

    def test_monte_carlo_metrics(self):
        from repro.sim import monte_carlo_reliability
        obs.enable()
        monte_carlo_reliability(c17(), 0.1, n_patterns=4096)
        reg = obs_metrics.get_registry()
        assert reg.value("mc.samples", circuit="c17") == 4096
        assert reg.value("mc.batches", circuit="c17") == 1
        rel = reg.value("mc.rel_stderr", circuit="c17")
        assert 0.0 < rel < 1.0
        assert obs.get_tracer().find("mc.run")

    def test_sat_call_counters(self):
        from repro.sat import Cnf, solve_cnf
        obs.enable()
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        cnf.add_clause([-a, b])
        assert solve_cnf(cnf) is not None
        assert obs_metrics.get_registry().value("sat.calls") == 1

    def test_bdd_manager_stats_and_publish(self):
        from repro.bdd import BddManager
        mgr = BddManager()
        x, y = mgr.new_var("x"), mgr.new_var("y")
        _ = x & y
        stats = mgr.stats()
        assert stats["num_vars"] == 2
        assert stats["nodes_allocated"] >= 4  # 2 terminals + x, y at least
        mgr.publish_metrics(circuit="tiny")  # disabled: no-op
        assert obs_metrics.snapshot() == []
        obs.enable()
        mgr.publish_metrics(circuit="tiny")
        assert obs_metrics.get_registry().value(
            "bdd.nodes_allocated", circuit="tiny") == stats["nodes_allocated"]

    def test_correlation_tallies(self):
        from repro.reliability import SinglePassAnalyzer
        # Per-query drop tallies are a scalar-engine behavior (the compiled
        # plan resolves gapped pairs to the constant row at compile time).
        analyzer = SinglePassAnalyzer(c17(), max_correlation_level_gap=0,
                                      compiled="off")
        result = analyzer.run(0.05)
        engine = result.correlation_engine
        assert engine.pairs_dropped_level_gap > 0

    def test_rare_event_metrics(self):
        from repro.sim import StratifiedEstimator
        obs.enable()
        est = StratifiedEstimator(c17(), max_failures=2, n_patterns=256,
                                  samples_per_stratum=5)
        est.evaluate(1e-6)
        reg = obs_metrics.get_registry()
        assert reg.value("rare_event.exact_sweeps", circuit="c17") == 6
        assert reg.value("rare_event.stratum_samples",
                         circuit="c17", k=2) == 5
        assert obs.get_tracer().find("rare_event.evaluate")


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("cli").name == "repro.cli"
        assert get_logger("repro.sim").name == "repro.sim"

    def test_verbosity_mapping(self):
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(5) == logging.DEBUG

    def test_configure_is_idempotent(self):
        root = obs.configure_logging(1)
        n_handlers = len(root.handlers)
        root2 = obs.configure_logging(2)
        assert root2 is root
        assert len(root.handlers) == n_handlers
        assert root.level == logging.DEBUG

    def test_thread_logging_after_capture_stream_closed(self, monkeypatch,
                                                        capsys):
        """A handler installed under a since-closed stderr must not raise
        "Logging error" when a (serve) thread logs later."""
        captured = io.StringIO()
        monkeypatch.setattr(sys, "stderr", captured)
        obs.configure_logging(1)
        monkeypatch.undo()
        captured.close()
        worker = threading.Thread(target=get_logger("engine.serve").info,
                                  args=("late serve-thread record",))
        worker.start()
        worker.join()
        err = capsys.readouterr().err
        assert "Logging error" not in err
        assert "late serve-thread record" in err

    def test_reset_detaches_handler(self):
        root = obs.configure_logging(1)
        n_handlers = len(root.handlers)
        obs_logging.reset()
        assert len(root.handlers) == n_handlers - 1
        assert root.level == logging.NOTSET


class TestRunlog:
    def test_record_round_trip(self, tmp_path):
        obs.enable()
        circuit = c17()
        with obs.trace_span("phase_a"):
            pass
        obs_metrics.inc("widgets", 3)
        record = obs_runlog.build_record(
            "analyze", circuit=circuit,
            params={"eps": 0.05}, results={"delta": 0.12})
        path = tmp_path / "run.jsonl"
        obs_runlog.append_record(path, record)
        obs_runlog.append_record(path, record)
        loaded = obs_runlog.read_runlog(path)
        assert len(loaded) == 2
        rec = loaded[0]
        assert rec["schema_version"] == obs_runlog.SCHEMA_VERSION
        assert rec["command"] == "analyze"
        assert rec["circuit"]["name"] == "c17"
        assert rec["circuit"]["gates"] == 6
        assert rec["params"] == {"eps": 0.05}
        assert rec["results"] == {"delta": 0.12}
        assert rec["phases"] == [{"name": "phase_a",
                                  "duration_s": pytest.approx(
                                      rec["phases"][0]["duration_s"])}]
        assert any(m["name"] == "widgets" and m["value"] == 3
                   for m in rec["metrics"])
        assert rec["library"]["version"]
        assert rec["timestamp"] > 0

    def test_record_without_circuit_or_obs(self, tmp_path):
        record = obs_runlog.build_record("bench")
        assert record.circuit == {}
        assert record.phases == []
        assert record.metrics == []
        path = tmp_path / "r.jsonl"
        obs_runlog.append_record(path, record)
        assert obs_runlog.read_runlog(path)[0]["command"] == "bench"

    def test_numpy_values_serialize(self, tmp_path):
        import numpy as np
        record = obs_runlog.build_record(
            "x", results={"delta": np.float64(0.25), "n": np.int64(7)})
        loaded = json.loads(record.to_json())
        assert loaded["results"] == {"delta": 0.25, "n": 7}

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert obs_runlog.read_runlog(path) == [{"a": 1}, {"b": 2}]


class TestEnableDisable:
    def test_is_enabled_reflects_either_subsystem(self):
        assert not obs.is_enabled()
        obs.enable(tracing=True, metrics_=False)
        assert obs.is_enabled()
        assert obs_trace.is_enabled() and not obs_metrics.is_enabled()
        obs.disable()
        obs.enable(tracing=False, metrics_=True)
        assert obs.is_enabled()
        assert obs_metrics.is_enabled() and not obs_trace.is_enabled()
