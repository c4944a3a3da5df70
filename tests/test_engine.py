"""Tests for the persistent AnalysisEngine (docs/engine.md).

Covers the session registry (hit/miss/eviction), request coalescing,
the timeout fallback ladder, the serve loop, and the envelope/CLI
byte-match guarantee.
"""

import io
import json

import pytest

from repro.cli import main
from repro.engine import AnalysisEngine, AnalysisRequest, run_batch, \
    serve_stream
from repro.probability import ErrorProbability

OPTS = {"weights": "sampled", "n_patterns": 1 << 10}


@pytest.fixture()
def engine():
    with AnalysisEngine(max_sessions=4) as eng:
        yield eng


class TestSessionRegistry:
    def test_hit_miss_counters(self, engine):
        engine.analyze("c17", 0.05, **OPTS)
        assert engine.stats()["session_misses"] == 1
        engine.analyze("c17", 0.1, **OPTS)
        stats = engine.stats()
        assert stats["session_hits"] == 1
        assert stats["session_misses"] == 1
        assert stats["sessions"] == 1

    def test_distinct_config_distinct_session(self, engine):
        engine.analyze("c17", 0.05, **OPTS)
        engine.analyze("c17", 0.05, weights="sampled", n_patterns=1 << 11)
        assert engine.stats()["sessions"] == 2
        assert engine.stats()["session_misses"] == 2

    def test_lru_eviction(self):
        with AnalysisEngine(max_sessions=2) as engine:
            for name in ("c17", "fig2", "fig1a"):
                engine.analyze(name, 0.05, **OPTS)
            stats = engine.stats()
            assert stats["sessions"] == 2
            assert stats["session_misses"] == 3
            # c17 was evicted: analyzing it again is a miss, not a hit.
            engine.analyze("c17", 0.05, **OPTS)
            assert engine.stats()["session_misses"] == 4

    def test_transient_options_bypass_registry(self, engine):
        engine.analyze(
            "c17", 0.05,
            input_errors={"1": ErrorProbability(p01=0.1, p10=0.1)},
            **OPTS)
        assert engine.stats()["sessions"] == 0


class TestSubmit:
    def test_envelope_shape(self, engine):
        resp = engine.submit({"id": 7, "op": "analyze", "circuit": "c17",
                              "eps": 0.05, "options": OPTS})
        env = resp.to_dict()
        assert env["ok"] and env["id"] == 7
        assert env["circuit"] == "c17"
        assert env["method"].startswith("single-pass")
        assert env["result"]["command"] == "analyze"
        assert env["elapsed_s"] > 0
        assert env["fallbacks"] == [] and not env["timed_out"]

    def test_bad_request_is_error_envelope(self, engine):
        env = engine.submit({"op": "florp", "circuit": "c17"}).to_dict()
        assert not env["ok"]
        assert "unknown op" in env["error"]

    def test_unknown_circuit_is_error_envelope(self, engine):
        env = engine.submit({"op": "analyze", "circuit": "zork"}).to_dict()
        assert not env["ok"]
        assert "neither a file nor a known benchmark" in env["error"]

    @pytest.mark.parametrize("option,value,message", [
        ("level_gap", -2, "level_gap must be >= 0"),
        ("max_correlation_level_gap", -1,
         "max_correlation_level_gap must be >= 0"),
        ("max_correlation_pairs", -1, "max_correlation_pairs must be >= 0"),
        ("n_patterns", 0, "n_patterns must be >= 1"),
        ("n_patterns", -4, "n_patterns must be >= 1"),
        ("n_patterns", 1.5, "n_patterns must be an integer"),
        ("seed", "x", "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
    ])
    def test_bad_numeric_option_is_error_envelope(self, engine, option,
                                                  value, message):
        env = engine.submit({"op": "analyze", "circuit": "c17",
                             "eps": 0.05,
                             "options": {option: value}}).to_dict()
        assert not env["ok"]
        assert message in env["error"]

    @pytest.mark.parametrize("op,method", [
        ("analyze", "mc"), ("analyze", "closed-form"),
        ("analyze", "consolidated"), ("closed-form", "single-pass"),
        ("curve", "single-pass")])
    def test_other_ops_succeed(self, engine, op, method):
        req = AnalysisRequest(circuit="fig2", op=op, eps=0.1, method=method,
                              options={"mc_patterns": 1 << 10, **OPTS})
        env = engine.submit(req).to_dict()
        assert env["ok"], env.get("error")
        assert env["result"]["circuit"] == "fig2"


class TestCoalescing:
    def test_same_session_requests_coalesce(self, engine):
        reqs = [{"op": "analyze", "circuit": "c17", "eps": e,
                 "options": OPTS} for e in (0.01, 0.05, 0.1)]
        responses = engine.submit_many(reqs)
        assert all(r.ok for r in responses)
        assert [r.coalesced for r in responses] == [3, 3, 3]
        # Parity: identical deltas to running each request alone.
        for req, batched in zip(reqs, responses):
            solo = engine.submit(req)
            assert solo.coalesced == 0
            assert batched.result["points"] == solo.result["points"]

    def test_mixed_circuits_coalesce_per_session(self, engine):
        reqs = [{"op": "analyze", "circuit": "c17", "eps": 0.01,
                 "options": OPTS},
                {"op": "analyze", "circuit": "fig2", "eps": 0.05,
                 "options": OPTS},
                {"op": "analyze", "circuit": "c17", "eps": 0.1,
                 "options": OPTS}]
        responses = engine.submit_many(reqs)
        assert [r.coalesced for r in responses] == [2, 0, 2]
        assert [r.circuit for r in responses] == ["c17", "fig2", "c17"]

    def test_timeout_requests_never_coalesce(self, engine):
        reqs = [{"op": "analyze", "circuit": "c17", "eps": 0.01,
                 "timeout_s": 60, "options": OPTS},
                {"op": "analyze", "circuit": "c17", "eps": 0.05,
                 "timeout_s": 60, "options": OPTS}]
        responses = engine.submit_many(reqs)
        assert all(r.ok for r in responses)
        assert [r.coalesced for r in responses] == [0, 0]


class TestTimeoutLadder:
    def test_expired_deadline_falls_back_to_closed_form(self, engine):
        env = engine.submit({"op": "analyze", "circuit": "c17",
                             "eps": 0.05, "timeout_s": 0,
                             "options": OPTS}).to_dict()
        assert env["ok"]
        assert env["timed_out"]
        assert env["method"] == "closed-form"
        assert env["fallbacks"] == [{"from": "single-pass-compiled",
                                     "to": "closed-form",
                                     "reason": "timeout"}]
        for point in env["result"]["points"]:
            for delta in point["per_output"].values():
                assert 0.0 <= delta <= 1.0

    def test_generous_deadline_stays_on_compiled(self, engine):
        env = engine.submit({"op": "analyze", "circuit": "c17",
                             "eps": 0.05, "timeout_s": 120,
                             "options": OPTS}).to_dict()
        assert env["method"] == "single-pass-compiled"
        assert not env["timed_out"]


class TestServeLoop:
    def test_pipe_smoke(self, engine):
        lines = [
            json.dumps({"id": 1, "op": "analyze", "circuit": "c17",
                        "eps": [0.01, 0.05], "options": OPTS}),
            "",
            json.dumps({"op": "ping"}),
            "not json at all {",
            json.dumps({"op": "analyze", "circuit": "zork"}),
            json.dumps({"id": "bye", "op": "shutdown"}),
            json.dumps({"op": "analyze", "circuit": "c17"}),  # after stop
        ]
        out = io.StringIO()
        served = serve_stream(engine, io.StringIO("\n".join(lines) + "\n"),
                              out)
        envelopes = [json.loads(l) for l in out.getvalue().splitlines()]
        assert served == 5  # blank skipped, post-shutdown line unread
        ok_flags = [e["ok"] for e in envelopes]
        assert ok_flags == [True, True, False, False, True]
        assert envelopes[0]["id"] == 1
        assert len(envelopes[0]["result"]["points"]) == 2
        assert "uptime_s" in envelopes[1]  # ping: cheap liveness echo
        assert "stats" not in envelopes[1]
        assert "invalid JSON" in envelopes[2]["error"]
        assert envelopes[4]["op"] == "shutdown"

    def test_batch_skips_comments_counts_failures(self, engine, tmp_path):
        lines = [
            "# a comment",
            json.dumps({"op": "analyze", "circuit": "c17", "eps": 0.05,
                        "options": OPTS}),
            json.dumps({"op": "analyze", "circuit": "zork"}),
            "{broken",
        ]
        out = io.StringIO()
        failures = run_batch(engine, lines, out)
        envelopes = [json.loads(l) for l in out.getvalue().splitlines()]
        assert failures == 2
        assert len(envelopes) == 3  # the comment produces no output line
        assert [e["ok"] for e in envelopes] == [True, False, False]
        assert "line 4" in envelopes[2]["error"]


class TestCliByteMatch:
    def test_serve_result_matches_one_shot_json(self, engine, capsys):
        assert main(["analyze", "c17", "--eps", "0.01,0.05", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("elapsed_s")
        env = engine.submit({"op": "analyze", "circuit": "c17",
                             "eps": [0.01, 0.05]}).to_dict()
        assert json.dumps(env["result"]) == json.dumps(doc)


class TestFanOut:
    def test_lanes_match_local_execution(self):
        reqs = [{"op": "analyze", "circuit": name, "eps": [0.01, 0.05],
                 "options": OPTS} for name in ("c17", "fig2", "fig1a")]
        with AnalysisEngine() as local_engine:
            local = [r.to_dict() for r in local_engine.submit_many(reqs)]
        with AnalysisEngine(jobs=2) as fan_engine:
            fanned = [r.to_dict() for r in fan_engine.submit_many(reqs)]
            assert fan_engine.stats()["lanes"] == 2
        for a, b in zip(local, fanned):
            assert a["ok"] and b["ok"]
            assert a["result"] == b["result"]
