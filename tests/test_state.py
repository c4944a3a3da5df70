"""Durable warm state and the async serve tier's control plane.

Covers the persistence layer end to end: workspace snapshots round-trip
bit-exactly for every edit kind, engine save/load survives corrupt
entries, batches journal and resume, admission control sheds load with
overload envelopes (which ``repro top`` renders instead of crashing),
read-only requests coalesce across different named edit sessions, and —
the headline — a ``repro serve`` process SIGKILLed mid-edit-session
resumes from its ``--state-dir`` with byte-identical analysis results.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.catalog import get_benchmark
from repro.engine import AnalysisEngine, handle_line, run_batch, serve_tcp
from repro.engine.serve import AdmissionControl, overload_envelope
from repro.probability.weight_cache import (
    load_workspace_state,
    store_workspace_state,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

OPTS = {"weights": "sampled", "n_patterns": 1 << 10, "seed": 7}

#: One edit request per kind (c17 node names are numeric strings).  The
#: add/remove pair exercises remove_gate against a node that is dangling
#: by construction.
EDITS_BY_KIND = {
    "set_eps": [{"kind": "set_eps", "eps": 0.03}],
    "swap_gate": [{"kind": "swap_gate", "gate": "16", "gate_type": "nor"}],
    "add_gate": [{"kind": "add_gate", "name": "spare", "gate_type": "and",
                  "fanins": ["10", "11"], "output": True, "eps": 0.02}],
    "remove_gate": [{"kind": "add_gate", "name": "tmp", "gate_type": "or",
                     "fanins": ["10", "11"]},
                    {"kind": "remove_gate", "gate": "tmp"}],
    "triplicate": [{"kind": "triplicate", "gates": ["19"],
                    "voter_eps": 0.005}],
}

ALL_EDITS = [edit for edits in EDITS_BY_KIND.values() for edit in edits]


def _edit(engine, session, edits, circuit="c17"):
    env = engine.submit({"op": "edit", "session": session,
                         "circuit": circuit, "edits": edits,
                         "options": dict(OPTS)}).to_dict()
    assert env["ok"], env.get("error")
    return env


def _reanalyze(engine, session):
    env = engine.submit({"op": "reanalyze", "session": session}).to_dict()
    assert env["ok"], env.get("error")
    return env


def _result_bytes(envelope):
    """The analysis payload as canonical bytes (for byte-match asserts)."""
    return json.dumps(envelope["result"], sort_keys=True).encode()


class TestWorkspaceStateRoundtrip:
    @pytest.mark.parametrize("kind", sorted(EDITS_BY_KIND))
    def test_roundtrip_bit_exact_per_edit_kind(self, kind, tmp_path):
        state_dir = str(tmp_path)
        original = AnalysisEngine(max_sessions=4, state_dir=state_dir)
        try:
            _edit(original, "ws", EDITS_BY_KIND[kind])
            expected = _reanalyze(original, "ws")
            summary = original.save_state()
            assert summary["sessions"] == 1
            ws_orig = original._edit_sessions["ws"].workspace()
            pack_orig = {n: ws_orig._values[n].copy()
                         for n in ws_orig._values}
        finally:
            original.close()

        restored = AnalysisEngine(max_sessions=4, state_dir=state_dir)
        try:
            summary = restored.load_state()
            assert summary["found"] and summary["sessions"] == 1
            assert not summary["errors"]
            resumed = _reanalyze(restored, "ws")
            assert _result_bytes(resumed) == _result_bytes(expected)
            ws_new = restored._edit_sessions["ws"].workspace()
            assert set(ws_new._values) == set(pack_orig)
            for name, words in pack_orig.items():
                np.testing.assert_array_equal(
                    ws_new._values[name][:len(words)], words)
        finally:
            restored.close()

    def test_all_edit_kinds_stacked(self, tmp_path):
        state_dir = str(tmp_path)
        original = AnalysisEngine(max_sessions=4, state_dir=state_dir)
        try:
            _edit(original, "ws", ALL_EDITS)
            expected = _reanalyze(original, "ws")
            original.save_state()
        finally:
            original.close()
        restored = AnalysisEngine(max_sessions=4, state_dir=state_dir)
        try:
            assert restored.load_state()["sessions"] == 1
            resumed = _reanalyze(restored, "ws")
            assert _result_bytes(resumed) == _result_bytes(expected)
            # The restored session keeps editing: the edit log replays
            # into the same incremental machinery, not a frozen copy.
            _edit(restored, "ws", [{"kind": "set_eps", "eps": 0.11}])
            env = _reanalyze(restored, "ws")
            assert env["result"]["points"][0]["eps"]["default"] == 0.11
        finally:
            restored.close()


class TestEngineStateFiles:
    def test_save_without_state_dir_raises(self):
        engine = AnalysisEngine(max_sessions=2)
        try:
            with pytest.raises(ValueError, match="state directory"):
                engine.save_state()
        finally:
            engine.close()

    def test_save_op_envelopes(self, tmp_path):
        stateful = AnalysisEngine(max_sessions=2, state_dir=str(tmp_path))
        try:
            _edit(stateful, "ws", EDITS_BY_KIND["set_eps"])
            env = json.loads(json.dumps(
                handle_line(stateful, '{"op": "save", "id": 9}')))
            assert env["ok"] and env["op"] == "save" and env["id"] == 9
            assert env["state"]["sessions"] == 1
        finally:
            stateful.close()
        stateless = AnalysisEngine(max_sessions=2)
        try:
            env = handle_line(stateless, '{"op": "save"}')
            assert not env["ok"] and "state directory" in env["error"]
        finally:
            stateless.close()

    def test_corrupt_entry_skipped_not_fatal(self, tmp_path):
        state_dir = str(tmp_path)
        engine = AnalysisEngine(max_sessions=4, state_dir=state_dir)
        try:
            _edit(engine, "good", EDITS_BY_KIND["set_eps"])
            _edit(engine, "bad", EDITS_BY_KIND["swap_gate"])
            engine.save_state()
        finally:
            engine.close()
        # Truncate the "bad" session's entry file in place.
        manifest = json.loads(
            (tmp_path / "engine-state.json").read_text())
        bad_file = next(e["file"] for e in manifest["sessions"]
                        if e["name"] == "bad")
        (tmp_path / bad_file).write_bytes(b"garbage")
        restored = AnalysisEngine(max_sessions=4, state_dir=state_dir)
        try:
            summary = restored.load_state()
            assert summary["found"] and summary["sessions"] == 1
            assert any("bad" in err for err in summary["errors"])
            assert "good" in restored._edit_sessions
            assert "bad" not in restored._edit_sessions
        finally:
            restored.close()

    def test_legacy_backend_key_restores(self, tmp_path):
        state_dir = str(tmp_path)
        engine = AnalysisEngine(max_sessions=2, state_dir=state_dir)
        try:
            _edit(engine, "ws", EDITS_BY_KIND["set_eps"])
            engine.save_state()
            config = engine._edit_sessions["ws"].config
        finally:
            engine.close()
        # Manifests from before the array-backend option was removed
        # carry every old session field, "backend": null among them.
        path = tmp_path / "engine-state.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["sessions"]:
            assert "backend" not in entry["config"]
            entry["config"]["backend"] = None
        path.write_text(json.dumps(manifest))
        restored = AnalysisEngine(max_sessions=2, state_dir=state_dir)
        try:
            summary = restored.load_state()
            assert summary["sessions"] == 1 and summary["errors"] == []
            assert restored._edit_sessions["ws"].config == config
            env = restored.submit({"op": "analyze", "circuit": "c17",
                                   "eps": 0.05,
                                   "options": {"backend": "numpy"}}
                                  ).to_dict()
            assert not env["ok"]
            assert "unknown session option 'backend'" in env["error"]
        finally:
            restored.close()

    def test_wstate_corruption_is_a_miss(self, tmp_path):
        circuit = get_benchmark("c17")
        engine = AnalysisEngine(max_sessions=2, state_dir=str(tmp_path))
        try:
            _edit(engine, "ws", EDITS_BY_KIND["set_eps"])
            ws = engine._edit_sessions["ws"].workspace()
            manifest, arrays = ws.to_state()
            path = store_workspace_state(str(tmp_path), "solo",
                                         manifest, arrays)
            assert load_workspace_state(str(tmp_path), "solo") is not None
            Path(path).write_bytes(b"\x00" * 16)
            assert load_workspace_state(str(tmp_path), "solo") is None
            assert circuit.inputs  # circuit untouched by the corruption
        finally:
            engine.close()


class TestBatchResume:
    LINES = [
        json.dumps({"id": i, "op": "analyze", "circuit": name,
                    "eps": [0.01, 0.05], "options": OPTS})
        for i, name in enumerate(["c17", "fig2", "fig1a", "b9"])
    ] + [
        json.dumps({"id": "e", "op": "edit", "session": "ws",
                    "circuit": "c17",
                    "edits": [{"kind": "set_eps", "eps": 0.04}],
                    "options": OPTS}),
        json.dumps({"id": "r", "op": "reanalyze", "session": "ws"}),
    ]

    def _run(self, tmp_path, out_name, resume, lines=None):
        engine = AnalysisEngine(max_sessions=8, state_dir=str(tmp_path))
        out = tmp_path / out_name
        try:
            with open(out, "w") as fh:
                failures = run_batch(engine, lines or self.LINES, fh,
                                     state_dir=str(tmp_path),
                                     resume=resume, checkpoint_every=2)
            return failures, out.read_text().splitlines(), engine
        finally:
            engine.close()

    def test_completed_journal_replays_without_recompute(self, tmp_path):
        failures, first, _ = self._run(tmp_path, "a.jsonl", resume=False)
        assert failures == 0
        engine = AnalysisEngine(max_sessions=8, state_dir=str(tmp_path))
        out = tmp_path / "b.jsonl"
        try:
            with open(out, "w") as fh:
                assert run_batch(engine, self.LINES, fh,
                                 state_dir=str(tmp_path), resume=True) == 0
            # Everything came from the journal: byte-identical output,
            # zero requests re-executed.
            assert out.read_text().splitlines() == first
            assert engine.stats()["requests_served"] == 0
        finally:
            engine.close()

    def test_partial_journal_resumes_remainder(self, tmp_path):
        _, first, _ = self._run(tmp_path, "a.jsonl", resume=False)
        journal = tmp_path / "batch-journal.jsonl"
        kept = journal.read_text().splitlines()[:3]  # header + 2 entries
        journal.write_text("\n".join(kept) + "\n")
        failures, second, _ = self._run(tmp_path, "b.jsonl", resume=True)
        assert failures == 0
        assert len(second) == len(first)
        # Journaled lines replay byte-identically; recomputed lines agree
        # on the analysis payload (timing telemetry legitimately differs).
        assert second[:2] == first[:2]
        for a, b in zip(first, second):
            ea, eb = json.loads(a), json.loads(b)
            assert eb["ok"]
            assert ea.get("result") == eb.get("result")

    def test_torn_journal_tail_keeps_valid_prefix(self, tmp_path):
        self._run(tmp_path, "a.jsonl", resume=False)
        journal = tmp_path / "batch-journal.jsonl"
        with open(journal, "a") as fh:
            fh.write('{"line": 99, "envelope"')  # crash mid-append
        failures, lines, _ = self._run(tmp_path, "b.jsonl", resume=True)
        assert failures == 0 and len(lines) == len(self.LINES)

    def test_fingerprint_mismatch_starts_fresh(self, tmp_path):
        self._run(tmp_path, "a.jsonl", resume=False)
        changed = list(self.LINES)
        changed[0] = json.dumps({"id": 0, "op": "analyze",
                                 "circuit": "c17", "eps": [0.2],
                                 "options": OPTS})
        failures, lines, _ = self._run(tmp_path, "b.jsonl", resume=True,
                                       lines=changed)
        assert failures == 0
        assert json.loads(lines[0])["result"]["points"][0]["eps"] == 0.2


class TestAdmissionControl:
    def test_gate_counts_and_release(self):
        gate = AdmissionControl(limit=2)
        assert gate.try_acquire() and gate.try_acquire()
        assert gate.saturated
        assert not gate.try_acquire()
        snap = gate.snapshot()
        assert snap["inflight"] == 2 and snap["limit"] == 2
        assert snap["accepted"] == 2 and snap["rejected"] == 1
        gate.release(2)
        assert not gate.saturated and gate.try_acquire()

    def test_retry_after_bounds(self):
        gate = AdmissionControl(limit=4)
        assert gate.retry_after_s() >= 0.05
        gate.note_service(100.0)
        gate.inflight = 4
        assert gate.retry_after_s() <= 30.0

    def test_overload_envelope_shape(self):
        gate = AdmissionControl(limit=1)
        gate.try_acquire()
        env = overload_envelope({"id": 3, "op": "analyze",
                                 "circuit": "c17"}, gate)
        assert not env["ok"] and env["id"] == 3
        assert "overloaded" in env["error"]
        over = env["overload"]
        assert over["limit"] == 1 and over["inflight"] == 1
        assert over["retry_after_s"] > 0

    def test_tcp_burst_sheds_with_overload_envelopes(self):
        """A 1-slot server answers a pipelined burst with overloads."""
        engine = AnalysisEngine(max_sessions=8)
        ready = threading.Event()
        box = {}

        def on_ready(port):
            box["port"] = port
            ready.set()

        thread = threading.Thread(
            target=serve_tcp, args=(engine, "127.0.0.1", 0),
            kwargs={"ready_callback": on_ready, "max_inflight": 1},
            daemon=True)
        thread.start()
        assert ready.wait(10)
        sock = socket.create_connection(("127.0.0.1", box["port"]),
                                        timeout=120)
        stream = sock.makefile("rwb")
        try:
            # First request holds the engine (cold c432 session build);
            # the rest of the burst arrives while it is in flight.
            burst = [{"id": 0, "op": "analyze", "circuit": "c432",
                      "eps": 0.01, "options": OPTS}]
            burst += [{"id": i, "op": "analyze", "circuit": "c17",
                       "eps": 0.01, "options": OPTS}
                      for i in range(1, 9)]
            burst.append({"id": "s", "op": "stats"})
            stream.write("".join(json.dumps(r) + "\n"
                                 for r in burst).encode())
            stream.flush()
            envs = [json.loads(stream.readline()) for _ in burst]
            shed = [e for e in envs if "overload" in e]
            served = [e for e in envs if e.get("ok")]
            assert served, envs
            assert shed, "burst at max_inflight=1 shed nothing"
            for env in shed:
                assert not env["ok"]
                assert env["overload"]["limit"] == 1
                assert env["overload"]["retry_after_s"] > 0
        finally:
            sock.close()
            engine.close()


class TestTopOverloadRendering:
    def test_top_frame_renders_overload(self):
        from repro.cli import _top_frame
        gate = AdmissionControl(limit=2)
        gate.try_acquire()
        gate.try_acquire()
        env = overload_envelope({"op": "stats"}, gate)
        text, retry_after = _top_frame("127.0.0.1:7777", env)
        assert "OVERLOADED" in text and "2/2" in text
        assert retry_after == env["overload"]["retry_after_s"]

    def test_top_frame_tolerates_missing_stats_payload(self):
        from repro.cli import _top_frame
        text, retry_after = _top_frame("x:1", {"ok": True, "op": "stats"})
        assert "repro top" in text and retry_after is None

    def test_top_frame_shows_admission_section(self):
        from repro.cli import _top_frame
        stats = {"version": "1", "uptime_s": 1.0, "rolling": {},
                 "admission": {"limit": 8, "inflight": 3, "accepted": 40,
                               "rejected": 2, "service_ewma_ms": 12.5,
                               "retry_after_s": 0.05}}
        text, _ = _top_frame("x:1", {"ok": True, "stats": stats})
        assert "admission" in text and "3/8" in text


class TestCrossSessionCoalescing:
    def test_same_structure_sessions_coalesce_bit_exact(self):
        engine = AnalysisEngine(max_sessions=8)
        try:
            _edit(engine, "a", [{"kind": "set_eps", "eps": 0.02}])
            _edit(engine, "b", [{"kind": "set_eps", "eps": 0.07}])
            solo = {name: _reanalyze(engine, name) for name in ("a", "b")}
            envs = [r.to_dict() for r in engine.submit_many(
                [{"op": "reanalyze", "session": "a"},
                 {"op": "reanalyze", "session": "b"}])]
            for env, name in zip(envs, ("a", "b")):
                assert env["ok"], env.get("error")
                assert env["coalesced"] == 2, (
                    "same-structure sessions should share one kernel call")
                assert _result_bytes(env) == _result_bytes(solo[name])
        finally:
            engine.close()

    def test_structural_divergence_blocks_coalescing(self):
        engine = AnalysisEngine(max_sessions=8)
        try:
            _edit(engine, "a", [{"kind": "set_eps", "eps": 0.02}])
            _edit(engine, "b", EDITS_BY_KIND["swap_gate"])
            envs = [r.to_dict() for r in engine.submit_many(
                [{"op": "reanalyze", "session": "a"},
                 {"op": "reanalyze", "session": "b"}])]
            assert all(e["ok"] for e in envs)
            assert [e["coalesced"] for e in envs] == [0, 0]
        finally:
            engine.close()

    def test_stateful_op_in_batch_blocks_that_session(self):
        engine = AnalysisEngine(max_sessions=8)
        try:
            _edit(engine, "a", [{"kind": "set_eps", "eps": 0.02}])
            _edit(engine, "b", [{"kind": "set_eps", "eps": 0.07}])
            envs = [r.to_dict() for r in engine.submit_many(
                [{"op": "reanalyze", "session": "a"},
                 {"op": "reanalyze", "session": "b"},
                 {"op": "edit", "session": "b",
                  "edits": [{"kind": "set_eps", "eps": 0.09}]}])]
            assert all(e["ok"] for e in envs), envs
            # Session b has an edit in the same batch: its reanalyze must
            # run solo, in submission order, and see the pre-edit eps.
            assert envs[1]["coalesced"] == 0
            assert envs[1]["result"]["points"][0]["eps"]["default"] == 0.07
            env = _reanalyze(engine, "b")
            assert env["result"]["points"][0]["eps"]["default"] == 0.09
        finally:
            engine.close()


def _spawn_serve(state_dir):
    """Boot ``repro serve --tcp`` in a subprocess; return (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
         "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, cwd=str(REPO_ROOT), text=True)
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise RuntimeError("serve subprocess died before readiness line")
    assert line.startswith("serving on "), line
    port = int(line.strip().rsplit(":", 1)[1])
    return proc, port


def _rpc(stream, obj):
    stream.write((json.dumps(obj) + "\n").encode())
    stream.flush()
    line = stream.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


class TestCrashResumeTCP:
    def test_sigkill_then_restart_resumes_byte_identical(self, tmp_path):
        """The acceptance scenario: SIGKILL mid-session, resume, match."""
        # Reference: the uninterrupted in-process run.
        reference = AnalysisEngine(max_sessions=4)
        try:
            _edit(reference, "ws", ALL_EDITS)
            expected = _reanalyze(reference, "ws")
        finally:
            reference.close()

        proc, port = _spawn_serve(tmp_path)
        try:
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=120)
            stream = sock.makefile("rwb")
            try:
                env = _rpc(stream, {"op": "edit", "session": "ws",
                                    "circuit": "c17", "edits": ALL_EDITS,
                                    "options": OPTS})
                assert env["ok"], env.get("error")
                env = _rpc(stream, {"op": "save"})
                assert env["ok"] and env["state"]["sessions"] == 1
            finally:
                sock.close()
            # No orderly shutdown: the process is killed outright.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        proc, port = _spawn_serve(tmp_path)
        try:
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=120)
            stream = sock.makefile("rwb")
            try:
                env = _rpc(stream, {"op": "reanalyze", "session": "ws"})
                assert env["ok"], env.get("error")
                assert _result_bytes(env) == _result_bytes(expected)
            finally:
                sock.close()
        finally:
            proc.kill()
            proc.wait(timeout=30)
