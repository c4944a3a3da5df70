"""Engine telemetry: envelopes, SLO stats, export.

Covers the telemetry layer end to end:

* per-request ``telemetry`` blocks (always on, obs flags or not);
* ``EngineStats`` rolling percentiles / cache windows / error counts;
* the ``ping``/``stats``/``metrics`` serve ops, with the Prometheus
  exposition parsed line by line;
* ``repro batch`` round-trip and stdio-vs-TCP envelope byte-matching.
"""

import io
import json
import re
import socket
import threading

import pytest

from repro import obs
from repro.engine import AnalysisEngine, EngineStats, handle_line, run_batch
from repro.engine.serve import serve_stream, serve_tcp

OPTS = {"weights": "sampled", "n_patterns": 1 << 10}

#: Keys every telemetry block must carry, in any envelope.
TELEMETRY_KEYS = {"request_id", "queue_wait_ms", "coalesced", "cache",
                  "ladder", "kernel_ms", "total_ms"}

#: One Prometheus sample line: name{labels} value
_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? (?P<value>[0-9eE.+-]+|NaN)$")


def parse_prometheus(text):
    """Validate exposition text; return {(name, labels): float} samples."""
    samples = {}
    types = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram", "summary"), line
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _PROM_LINE.match(line)
        assert match, f"malformed exposition line: {line!r}"
        samples[(match["name"], match["labels"] or "")] = \
            float(match["value"])
    return samples, types


@pytest.fixture()
def engine():
    with AnalysisEngine(max_sessions=8) as eng:
        yield eng


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestTelemetryEnvelope:
    def test_always_populated_without_obs(self, engine):
        assert not obs.is_enabled()
        response = engine.submit({"op": "analyze", "circuit": "c17",
                                  "eps": [0.05], "options": OPTS})
        assert response.ok
        assert response.telemetry is not None
        assert set(response.telemetry) == TELEMETRY_KEYS
        # The obs block stays flag-gated; telemetry does not.
        assert response.obs is None
        assert response.to_dict()["telemetry"] == response.telemetry

    def test_cache_fields_track_warmth(self, engine):
        first = engine.submit({"op": "analyze", "circuit": "c17",
                               "eps": [0.05], "options": OPTS})
        assert first.telemetry["cache"] == {
            "session": "miss", "weights": "cold", "plan": "cold"}
        second = engine.submit({"op": "analyze", "circuit": "c17",
                                "eps": [0.1], "options": OPTS})
        assert second.telemetry["cache"] == {
            "session": "hit", "weights": "warm", "plan": "warm"}

    def test_ladder_and_kernel_fields(self, engine):
        response = engine.submit({"op": "analyze", "circuit": "c17",
                                  "eps": [0.05], "options": OPTS})
        telemetry = response.telemetry
        assert telemetry["ladder"] == response.method
        assert telemetry["ladder"].startswith("single-pass")
        assert 0.0 < telemetry["kernel_ms"] <= telemetry["total_ms"]
        assert telemetry["queue_wait_ms"] == 0.0
        assert re.fullmatch(r"[0-9a-f]+-[0-9a-f]{6}",
                            telemetry["request_id"])

    def test_queue_wait_measured_through_serve(self, engine):
        envelope = handle_line(engine, json.dumps(
            {"op": "analyze", "circuit": "c17", "eps": [0.05],
             "options": OPTS}))
        assert envelope["ok"]
        assert envelope["telemetry"]["queue_wait_ms"] >= 0.0

    def test_coalesced_batch_telemetry(self, engine):
        requests = [{"op": "analyze", "circuit": "c17", "eps": [eps],
                     "id": i, "options": OPTS}
                    for i, eps in enumerate((0.01, 0.05, 0.1))]
        responses = engine.submit_many(requests)
        for response in responses:
            assert response.coalesced == 3
            assert response.telemetry["coalesced"] == 3
        # One kernel call: all members share its (divided) kernel time.
        kernels = {r.telemetry["kernel_ms"] for r in responses}
        assert len(kernels) == 1

    def test_error_envelope_still_carries_telemetry(self, engine):
        response = engine.submit({"op": "analyze", "circuit": "zork"})
        assert not response.ok
        assert response.telemetry is not None
        assert set(response.telemetry) == TELEMETRY_KEYS

    def test_transient_session_marked(self, engine):
        from repro.probability import ErrorProbability
        response = engine.submit({
            "op": "analyze", "circuit": "c17", "eps": [0.05],
            "options": {**OPTS, "input_errors": {
                "1": ErrorProbability(p01=0.1, p10=0.1)}}})
        assert response.ok
        assert response.telemetry["cache"]["session"] == "transient"


class TestEngineStats:
    def test_percentiles_on_known_latencies(self):
        stats = EngineStats(window=128)
        for ms in range(1, 101):  # 1..100 ms uniform
            stats.record("analyze", ms / 1e3)
        pct = stats.percentiles("analyze")
        assert pct["p50"] == pytest.approx(0.050, rel=0.25)
        assert pct["p95"] == pytest.approx(0.095, rel=0.25)
        assert pct["p99"] == pytest.approx(0.099, rel=0.25)
        assert pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_window_rolls(self):
        stats = EngineStats(window=10)
        for _ in range(50):
            stats.record("analyze", 1.0)
        for _ in range(10):
            stats.record("analyze", 0.001)
        summary = stats.ops_summary()["analyze"]
        assert summary["count"] == 60        # lifetime counter
        assert summary["window"] == 10       # ring depth
        assert summary["p99_ms"] < 100       # the 1 s samples rolled out

    def test_cache_windows(self):
        stats = EngineStats()
        for state in ("miss", "hit", "hit", "hit"):
            stats.record("analyze", 0.001,
                         cache={"session": state, "weights": "transient"})
        rates = stats.cache_rates()
        assert rates["session"]["hit_rate"] == pytest.approx(0.75)
        assert "weights" not in rates  # neutral states never counted

    def test_errors_and_lanes(self):
        stats = EngineStats()
        stats.record("analyze", 0.001, ok=False)
        summary = stats.ops_summary()["analyze"]
        assert summary["errors"] == 1
        # One in-process executor: no lane panel, no lane series.
        assert "lanes" not in stats.snapshot()
        assert "_lane_" not in stats.to_prometheus()

    def test_to_prometheus_quantile_series(self):
        stats = EngineStats()
        for ms in (1, 2, 3, 50):
            stats.record("analyze", ms / 1e3,
                         cache={"session": "hit"})
        samples, types = parse_prometheus(stats.to_prometheus())
        name = "repro_engine_request_latency_seconds"
        assert types[name] == "summary"
        for quantile in ("0.5", "0.95", "0.99"):
            key = (name, f'{{op="analyze",quantile="{quantile}"}}')
            assert key in samples
        assert samples[(name + "_count", '{op="analyze"}')] == 4
        assert samples[("repro_engine_requests_total",
                        '{op="analyze"}')] == 4
        assert samples[("repro_engine_cache_hit_ratio",
                        '{tier="session"}')] == 1.0


class TestServeControlOps:
    def test_ping_is_cheap_echo(self, engine):
        envelope = handle_line(engine, '{"id": 9, "op": "ping"}')
        assert envelope == {"id": 9, "ok": True, "op": "ping",
                            "uptime_s": envelope["uptime_s"]}
        assert envelope["uptime_s"] >= 0.0

    def test_stats_carries_identity_and_rolling(self, engine):
        from repro import __version__
        engine.submit({"op": "analyze", "circuit": "c17", "eps": [0.05],
                       "options": OPTS})
        envelope = handle_line(engine, '{"op": "stats"}')
        stats = envelope["stats"]
        assert stats["version"] == __version__
        assert stats["uptime_s"] > 0.0
        assert stats["started_at"] > 1e9  # wall clock, not monotonic
        ops = stats["rolling"]["ops"]
        assert ops["analyze"]["count"] == 1
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
            assert ops["analyze"][key] >= 0.0
        assert stats["rolling"]["cache"]["session"]["hit_rate"] == 0.0

    def test_metrics_op_emits_valid_exposition(self, engine):
        for eps in (0.01, 0.05, 0.1):
            engine.submit({"op": "analyze", "circuit": "c17",
                           "eps": [eps], "options": OPTS})
        envelope = handle_line(engine, '{"op": "metrics"}')
        assert envelope["ok"] and envelope["op"] == "metrics"
        assert envelope["content_type"].startswith("text/plain")
        samples, types = parse_prometheus(envelope["exposition"])
        name = "repro_engine_request_latency_seconds"
        assert types[name] == "summary"
        quantiles = [q for (n, labels), _ in samples.items()
                     if n == name
                     for q in re.findall(r'quantile="([^"]+)"', labels)]
        assert set(quantiles) == {"0.5", "0.95", "0.99"}
        assert samples[("repro_engine_requests_total",
                        '{op="analyze"}')] == 3


def _normalize(envelope):
    """Strip volatile fields so two envelopes compare byte-for-byte."""
    env = json.loads(json.dumps(envelope))  # deep copy
    env["elapsed_s"] = 0.0
    telemetry = env.get("telemetry")
    if telemetry:
        telemetry["request_id"] = "RID"
        for key in ("queue_wait_ms", "kernel_ms", "total_ms"):
            telemetry[key] = 0.0
    return json.dumps(env, sort_keys=True)


class TestEnvelopeRoundTrip:
    REQUEST = {"id": 1, "op": "analyze", "circuit": "c17",
               "eps": [0.01, 0.05], "options": OPTS}

    def test_batch_round_trips_telemetry(self, engine, tmp_path):
        lines = [json.dumps(self.REQUEST),
                 json.dumps({**self.REQUEST, "id": 2, "eps": [0.1]})]
        out = io.StringIO()
        failures = run_batch(engine, lines, out)
        assert failures == 0
        envelopes = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert len(envelopes) == 2
        for envelope in envelopes:
            assert set(envelope["telemetry"]) == TELEMETRY_KEYS
            assert envelope["telemetry"]["coalesced"] == 2
            assert envelope["telemetry"]["queue_wait_ms"] >= 0.0

    def test_stdio_and_tcp_envelopes_byte_match(self):
        line = json.dumps(self.REQUEST)
        with AnalysisEngine(max_sessions=8) as eng:
            eng.submit(self.REQUEST)  # warm, so both paths hit the cache
            out = io.StringIO()
            serve_stream(eng, io.StringIO(line + "\n"), out)
            stdio_env = json.loads(out.getvalue())

            ready = threading.Event()
            box = {}

            def on_ready(port):
                box["port"] = port
                ready.set()

            thread = threading.Thread(
                target=serve_tcp, args=(eng, "127.0.0.1", 0),
                kwargs={"ready_callback": on_ready}, daemon=True)
            thread.start()
            assert ready.wait(10)
            sock = socket.create_connection(("127.0.0.1", box["port"]),
                                            timeout=60)
            try:
                stream = sock.makefile("rwb")
                stream.write((line + "\n").encode())
                stream.flush()
                tcp_env = json.loads(stream.readline())
            finally:
                sock.close()
        assert _normalize(stdio_env) == _normalize(tcp_env)
        assert set(stdio_env["telemetry"]) == TELEMETRY_KEYS
        assert stdio_env["telemetry"]["cache"] == {
            "session": "hit", "weights": "warm", "plan": "warm"}


class TestRunlogTelemetry:
    def test_schema_v2_carries_telemetry(self, engine, tmp_path):
        from repro.obs import runlog
        response = engine.submit({"op": "analyze", "circuit": "c17",
                                  "eps": [0.05], "options": OPTS})
        record = runlog.build_record("analyze",
                                     telemetry=response.telemetry)
        assert record.schema_version == 2
        path = tmp_path / "run.jsonl"
        runlog.append_record(path, record)
        loaded = runlog.read_runlog(path)[0]
        assert loaded["schema_version"] == 2
        assert set(loaded["telemetry"]) == TELEMETRY_KEYS

    def test_plain_records_have_null_telemetry(self, tmp_path):
        from repro.obs import runlog
        record = runlog.build_record("analyze")
        assert record.telemetry is None
        path = tmp_path / "run.jsonl"
        runlog.append_record(path, record)
        assert runlog.read_runlog(path)[0]["telemetry"] is None
