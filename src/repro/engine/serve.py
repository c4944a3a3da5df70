"""Line-delimited JSON request serving: ``repro serve`` / ``repro batch``.

The wire protocol is deliberately minimal — one JSON object per line in,
one JSON envelope per line out, in request order:

    {"id": 1, "op": "analyze", "circuit": "c17", "eps": [0.01, 0.05]}
    {"id": 1, "ok": true, "result": {...}, "method": "...", ...}

Five control ops exist alongside the analysis ops:

* ``{"op": "ping"}`` — cheap liveness echo: ``{ok, op, uptime_s}``,
  answered without touching the engine's locks or session registry;
* ``{"op": "stats"}`` — the full ``engine.stats()`` payload (registry
  counters, rolling latency percentiles, cache windows, admission
  state);
* ``{"op": "metrics"}`` — Prometheus text exposition of the engine's
  rolling stats plus the obs metrics registry;
* ``{"op": "save"}`` — snapshot the engine's named edit sessions to its
  state directory (``engine.save_state()``), echoing the summary;
* ``{"op": "shutdown"}`` — acknowledge and close the connection (stdio
  mode exits the loop; TCP mode closes that client's connection).

``serve_stream`` drives one connection over file objects (stdio or a
socket makefile).  ``serve_tcp`` is the TCP front-end: a single asyncio
event loop accepts every connection, gives each one bounded read/write
queues (backpressure per connection), funnels admitted requests through
a global :class:`AdmissionControl` gate, and **micro-batches** whatever
has queued up into one ``engine.submit_many`` call on a dedicated
engine thread — so concurrent clients' requests coalesce and
tensor-batch exactly like an offline ``repro batch`` file, instead of
contending per-request.  Requests beyond the admission limit are
answered immediately with an *overload envelope* carrying a
``retry_after_s`` hint rather than queued without bound.

``run_batch`` executes an offline ``requests.jsonl`` through the same
in-process scheduler; given a state directory it journals every
answered envelope and checkpoints engine state, so an interrupted batch
rerun with ``resume=True`` replays finished work from the journal and
continues where it stopped.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Dict, IO, List, Optional

from ..obs import get_logger
from ..obs import metrics as obs_metrics
from .core import AnalysisEngine
from .requests import AnalysisResponse

log = get_logger("engine.serve")

#: Ops handled by the serve loop itself, without touching the scheduler.
CONTROL_OPS = ("ping", "stats", "metrics", "save", "shutdown")

#: Content type a ``metrics`` envelope's exposition text conforms to.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Hard cap on one request line (1 MiB).  Stdio mode answers an oversized
#: line with an error envelope and keeps serving; TCP mode answers and
#: closes the connection, since the stream cannot be resynchronized
#: mid-line without reading the rest of the flood.
MAX_REQUEST_BYTES = 1 << 20

#: Default global admission limit for the async front-end: requests in
#: flight (admitted, not yet answered) beyond this are shed with an
#: overload envelope instead of queueing without bound.
DEFAULT_MAX_INFLIGHT = 256

#: Per-connection response-queue bound: a client that stops reading its
#: responses stops being read from (TCP backpressure), instead of
#: buffering envelopes without limit.
MAX_PENDING_PER_CONNECTION = 64

#: Most requests drained into one ``submit_many`` micro-batch.  Large
#: enough for the cross-circuit tensor pass to merge a full catalog,
#: small enough to bound per-batch latency.
MAX_DISPATCH_BATCH = 64


def _too_long_envelope(n_bytes: int) -> Dict[str, Any]:
    return AnalysisResponse(
        ok=False, op="?", circuit="?",
        error=(f"request line too long ({n_bytes} bytes > "
               f"{MAX_REQUEST_BYTES} byte cap)")).to_dict()


def handle_line(engine: AnalysisEngine, line: str) -> Dict[str, Any]:
    """One request line → one envelope dict (never raises)."""
    received_at = time.time()
    if len(line) > MAX_REQUEST_BYTES:
        return _too_long_envelope(len(line))
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return AnalysisResponse(ok=False, op="?", circuit="?",
                                error=f"invalid JSON: {exc}").to_dict()
    if isinstance(data, dict) and data.get("op") in CONTROL_OPS:
        op = data["op"]
        if op == "ping":
            # Lock-free liveness echo: never blocks behind the registry.
            return {"id": data.get("id"), "ok": True, "op": op,
                    "uptime_s": engine.uptime_s()}
        if op == "metrics":
            return {"id": data.get("id"), "ok": True, "op": op,
                    "content_type": PROMETHEUS_CONTENT_TYPE,
                    "exposition": engine.prometheus()}
        if op == "stats":
            return {"id": data.get("id"), "ok": True, "op": op,
                    "stats": engine.stats()}
        if op == "save":
            try:
                return {"id": data.get("id"), "ok": True, "op": op,
                        "state": engine.save_state()}
            except Exception as exc:  # noqa: BLE001 - envelope, don't die
                return {"id": data.get("id"), "ok": False, "op": op,
                        "error": f"{type(exc).__name__}: {exc}"}
        return {"id": data.get("id"), "ok": True, "op": op}
    return engine.submit(data, received_at=received_at).to_dict()


def serve_stream(engine: AnalysisEngine, infile: IO[str],
                 outfile: IO[str]) -> int:
    """Serve one line-delimited connection until EOF or ``shutdown``.

    Returns the number of requests answered.
    """
    served = 0
    for line in infile:
        line = line.strip()
        if not line:
            continue
        envelope = handle_line(engine, line)
        outfile.write(json.dumps(envelope) + "\n")
        outfile.flush()
        served += 1
        if envelope.get("op") == "shutdown":
            break
    return served


# ----------------------------------------------------------------------
# Admission control + overload envelopes
# ----------------------------------------------------------------------

class AdmissionControl:
    """Global in-flight gate for the async front-end.

    Counts admitted-but-unanswered requests against ``limit`` and keeps
    an EWMA of per-request service time, from which the overload
    envelope's ``retry_after_s`` hint is estimated (roughly: how long
    until the current in-flight work drains).  All mutation happens on
    the event-loop thread; :meth:`snapshot` is read from the engine
    thread by ``stats`` and is tolerant of torn reads (plain counters).
    """

    def __init__(self, limit: int = DEFAULT_MAX_INFLIGHT):
        self.limit = max(1, int(limit))
        self.inflight = 0
        self.accepted = 0
        self.rejected = 0
        #: EWMA of per-request engine service time, seeded pessimistically
        #: at 20 ms (one cold-ish kernel call) until real batches land.
        self.service_ewma_s = 0.02

    @property
    def saturated(self) -> bool:
        return self.inflight >= self.limit

    def try_acquire(self) -> bool:
        """Admit one request, or count a rejection and refuse."""
        if self.inflight >= self.limit:
            self.count_rejection()
            return False
        self.inflight += 1
        self.accepted += 1
        if obs_metrics.is_enabled():
            obs_metrics.inc("engine.admission.accepted")
            obs_metrics.set_gauge("engine.admission.inflight",
                                  self.inflight)
        return True

    def count_rejection(self) -> None:
        self.rejected += 1
        if obs_metrics.is_enabled():
            obs_metrics.inc("engine.admission.rejected")

    def release(self, n: int = 1) -> None:
        self.inflight = max(0, self.inflight - n)
        if obs_metrics.is_enabled():
            obs_metrics.set_gauge("engine.admission.inflight",
                                  self.inflight)

    def note_service(self, per_request_s: float) -> None:
        self.service_ewma_s = (0.8 * self.service_ewma_s
                               + 0.2 * max(0.0, per_request_s))

    def retry_after_s(self) -> float:
        """Drain-time estimate for the overload envelope, in [0.05, 30]."""
        estimate = self.inflight * self.service_ewma_s
        return round(min(30.0, max(0.05, estimate)), 3)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "limit": self.limit,
            "inflight": self.inflight,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "retry_after_s": self.retry_after_s(),
            "service_ewma_ms": round(self.service_ewma_s * 1e3, 3),
        }


def overload_envelope(data: Dict[str, Any],
                      admission: AdmissionControl) -> Dict[str, Any]:
    """The ``ok=False`` envelope shed requests are answered with.

    Besides the usual error fields it carries an ``overload`` block —
    the admission snapshot, including ``retry_after_s`` — so clients
    (and ``repro top``) can back off intelligently.
    """
    snap = admission.snapshot()
    env = AnalysisResponse(
        ok=False, op=str(data.get("op", "analyze")),
        circuit=str(data.get("circuit", "?")), id=data.get("id"),
        error=(f"server overloaded: {snap['inflight']} requests in flight "
               f"(limit {snap['limit']}); retry after "
               f"{snap['retry_after_s']}s")).to_dict()
    env["overload"] = snap
    return env


# ----------------------------------------------------------------------
# The asyncio TCP front-end
# ----------------------------------------------------------------------

#: Sentinel a connection's reader pushes to end its writer task.
_CLOSE = object()


class _AsyncServer:
    """One event loop, many connections, one engine thread.

    Connections never touch the engine directly: admitted requests flow
    into a shared dispatch queue, and a single dispatcher task drains up
    to :data:`MAX_DISPATCH_BATCH` of them into one
    ``engine.submit_many`` call executed on a dedicated single-thread
    executor.  That thread is the *only* place analysis runs, so engine
    state needs no extra locking, ``save`` snapshots are trivially
    consistent — and, crucially, requests arriving concurrently from
    different clients are answered by one coalesced/tensor-batched
    kernel pass instead of serializing through the GIL one at a time.
    """

    def __init__(self, engine: AnalysisEngine, *,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 snapshot_interval: Optional[float] = None):
        self.engine = engine
        self.admission = AdmissionControl(max_inflight)
        self.snapshot_interval = snapshot_interval
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None

    # -- lifecycle ------------------------------------------------------
    async def run(self, host: str, port: int, ready_callback=None) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self.engine._admission = self.admission
        server = await asyncio.start_server(
            self._handle_connection, host, port,
            limit=MAX_REQUEST_BYTES + 2)
        dispatcher = asyncio.create_task(self._dispatch_loop())
        snapshotter = None
        if self.snapshot_interval and self.engine.state_dir:
            snapshotter = asyncio.create_task(self._snapshot_loop())
        try:
            bound_port = server.sockets[0].getsockname()[1]
            if ready_callback is not None:
                ready_callback(bound_port)
            log.info("serving on %s:%d", host, bound_port)
            async with server:
                await server.serve_forever()
        finally:
            dispatcher.cancel()
            if snapshotter is not None:
                snapshotter.cancel()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self.engine._admission = None

    # -- request routing (event-loop thread) ----------------------------
    def _route(self, line: str):
        """One request line → ``(envelope | future | None, shutdown?)``.

        Control ops that only read counters answer inline on the event
        loop; ``save`` and analysis ops go to the engine thread (the
        latter via the admission gate + dispatch queue, returning a
        future the connection's writer awaits in order).
        """
        received_at = time.time()
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            return (AnalysisResponse(
                ok=False, op="?", circuit="?",
                error=f"invalid JSON: {exc}").to_dict(), False)
        if not isinstance(data, dict):
            return (AnalysisResponse(
                ok=False, op="?", circuit="?",
                error="request must be a JSON object").to_dict(), False)
        op = data.get("op")
        if op == "ping":
            return ({"id": data.get("id"), "ok": True, "op": op,
                     "uptime_s": self.engine.uptime_s()}, False)
        if op == "shutdown":
            return ({"id": data.get("id"), "ok": True, "op": op}, True)
        if op == "stats":
            if self.admission.saturated:
                # Shed dashboard traffic too — but with the admission
                # snapshot attached, which is exactly what an operator
                # needs from an overloaded server.
                self.admission.count_rejection()
                return (overload_envelope(data, self.admission), False)
            return ({"id": data.get("id"), "ok": True, "op": op,
                     "stats": self.engine.stats()}, False)
        if op == "metrics":
            # Always answered: scrapes must work *especially* under load.
            return ({"id": data.get("id"), "ok": True, "op": op,
                     "content_type": PROMETHEUS_CONTENT_TYPE,
                     "exposition": self.engine.prometheus()}, False)
        if op == "save":
            # Runs on the engine thread so the snapshot serializes with
            # in-flight batches (a consistent cut, no torn sessions).
            future = self._loop.run_in_executor(
                self._executor, partial(handle_line, self.engine, line))
            return (future, False)
        if not self.admission.try_acquire():
            return (overload_envelope(data, self.admission), False)
        future = self._loop.create_future()
        self._queue.put_nowait((data, future, received_at))
        return (future, False)

    # -- dispatcher (event-loop thread -> engine thread) ----------------
    async def _dispatch_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while len(batch) < MAX_DISPATCH_BATCH:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            requests = [item[0] for item in batch]
            received_at = min(item[2] for item in batch)
            t0 = time.perf_counter()
            try:
                responses = await self._loop.run_in_executor(
                    self._executor,
                    partial(self.engine.submit_many, requests,
                            received_at=received_at))
                self.admission.note_service(
                    (time.perf_counter() - t0) / len(batch))
                for (_, future, _), response in zip(batch, responses):
                    if not future.cancelled():
                        future.set_result(response.to_dict())
            except Exception as exc:  # noqa: BLE001 - envelope per request
                for data, future, _ in batch:
                    if not future.cancelled():
                        future.set_result(AnalysisResponse(
                            ok=False, op=str(data.get("op", "analyze")),
                            circuit=str(data.get("circuit", "?")),
                            id=data.get("id"),
                            error=f"{type(exc).__name__}: {exc}"
                        ).to_dict())
            finally:
                self.admission.release(len(batch))

    # -- periodic snapshots ---------------------------------------------
    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval)
            try:
                summary = await self._loop.run_in_executor(
                    self._executor, self.engine.save_state)
                log.info("state snapshot: %d session(s) -> %s",
                         summary["sessions"], summary["state_dir"])
            except Exception as exc:  # noqa: BLE001 - snapshots best-effort
                log.warning("state snapshot failed: %s", exc)

    # -- per-connection plumbing ----------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        pending: asyncio.Queue = asyncio.Queue(MAX_PENDING_PER_CONNECTION)
        writer_task = asyncio.create_task(self._write_loop(pending, writer))
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit (the reader cleared
                    # its buffer): answer, drain the flood's tail so the
                    # close is a clean FIN rather than an RST racing the
                    # envelope off the wire, and close — the stream
                    # cannot be resynchronized.
                    await self._offer(pending, writer_task,
                                      _too_long_envelope(
                                          MAX_REQUEST_BYTES + 1))
                    await self._drain_flood(reader)
                    break
                except (ConnectionError, OSError):
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                item, shutdown = self._route(line)
                if item is not None:
                    if not await self._offer(pending, writer_task, item):
                        break
                if shutdown:
                    break
        finally:
            if not writer_task.done():
                await self._offer(pending, writer_task, _CLOSE)
            await writer_task

    @staticmethod
    async def _offer(pending: asyncio.Queue, writer_task: asyncio.Task,
                     item) -> bool:
        """Put onto the bounded queue unless the writer already died.

        Waiting on *both* the put and the writer task means a client
        that disconnects while its queue is full cannot wedge the reader
        forever — the backpressure wait ends when either side resolves.
        """
        put = asyncio.ensure_future(pending.put(item))
        await asyncio.wait({put, writer_task},
                           return_when=asyncio.FIRST_COMPLETED)
        if put.done():
            return not put.cancelled()
        put.cancel()
        return False

    async def _write_loop(self, pending: asyncio.Queue,
                          writer: asyncio.StreamWriter) -> None:
        """Drain one connection's responses, strictly in request order.

        Queue items are envelopes (control ops, overloads) or futures
        (in-flight analysis requests); awaiting them in queue order
        preserves the wire protocol's request-order guarantee even
        though the engine answers micro-batches out of phase.
        """
        try:
            while True:
                item = await pending.get()
                if item is _CLOSE:
                    break
                if asyncio.isfuture(item):
                    item = await item
                writer.write((json.dumps(item) + "\n").encode())
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _drain_flood(reader: asyncio.StreamReader) -> None:
        """Consume the bounded tail of an over-long line before closing."""
        for _ in range(64):
            try:
                tail = await asyncio.wait_for(reader.readline(), timeout=0.5)
            except ValueError:
                continue  # still mid-flood; keep draining
            except (asyncio.TimeoutError, ConnectionError, OSError):
                return
            if not tail or tail.endswith(b"\n"):
                return


def serve_tcp(engine: AnalysisEngine, host: str, port: int,
              ready_callback=None, *,
              max_inflight: int = DEFAULT_MAX_INFLIGHT,
              snapshot_interval: Optional[float] = None) -> None:
    """Serve TCP clients on one asyncio event loop (see module doc).

    ``ready_callback(bound_port)`` fires once the socket is listening —
    tests use it to learn an ephemeral port.  The engine is shared
    across connections and driven from a single dedicated thread;
    concurrent clients' requests micro-batch into coalesced/tensor
    kernel passes.  ``max_inflight`` bounds admitted requests globally
    (beyond it, clients get overload envelopes with ``retry_after_s``);
    ``snapshot_interval`` (seconds) enables periodic
    ``engine.save_state()`` checkpoints when the engine has a state
    directory.
    """
    asyncio.run(_AsyncServer(
        engine, max_inflight=max_inflight,
        snapshot_interval=snapshot_interval).run(host, port,
                                                 ready_callback))


# ----------------------------------------------------------------------
# Offline batches with journaled checkpoints
# ----------------------------------------------------------------------

def _batch_journal_path(state_dir: str) -> str:
    return os.path.join(state_dir, "batch-journal.jsonl")


def _read_journal(path: str,
                  fingerprint: str) -> Optional[Dict[int, Dict[str, Any]]]:
    """Envelopes already answered for this exact request file, or None.

    None means the journal is absent, unreadable, or belongs to a
    different request file (fingerprint mismatch) — the batch starts
    fresh.  A torn tail (crash mid-append) keeps the valid prefix.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    if not lines:
        return None
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    if (header.get("kind") != "batch_journal"
            or header.get("fingerprint") != fingerprint):
        return None
    done: Dict[int, Dict[str, Any]] = {}
    for raw in lines[1:]:
        try:
            entry = json.loads(raw)
            done[int(entry["line"])] = entry["envelope"]
        except Exception:  # noqa: BLE001 - torn tail: keep valid prefix
            break
    return done


def run_batch(engine: AnalysisEngine, lines: List[str], outfile: IO[str],
              state_dir: Optional[str] = None, resume: bool = False,
              checkpoint_every: int = 32) -> int:
    """Execute a requests.jsonl offline: coalesced, answered in order.

    Unlike the interactive loop, the whole batch is visible up front, so
    same-session sweep points collapse into single kernel calls and
    plain-mode requests for different circuits merge into one tensor
    pass.  Returns the number of failed requests (0 = clean batch).

    With ``state_dir`` set the batch becomes restartable: requests run
    in chunks of ``checkpoint_every``, each chunk's envelopes are
    appended to a journal keyed by a fingerprint of the request file,
    and engine state (named edit sessions) is snapshotted after every
    chunk.  ``resume=True`` replays journaled envelopes verbatim,
    restores the engine snapshot, and executes only the remainder —
    a long hardening loop killed at request 900 of 1000 redoes ~100
    requests, not 900.
    """
    requests: List[Any] = []
    parse_errors: Dict[int, Optional[Dict[str, Any]]] = {}
    for i, line in enumerate(lines):
        line = line.strip()
        if not line or line.startswith("#"):
            parse_errors[i] = None  # skip marker: no output line
            continue
        try:
            requests.append((i, json.loads(line)))
        except json.JSONDecodeError as exc:
            parse_errors[i] = AnalysisResponse(
                ok=False, op="?", circuit="?",
                error=f"invalid JSON on line {i + 1}: {exc}").to_dict()

    if state_dir is None:
        responses = engine.submit_many([req for _, req in requests],
                                       received_at=time.time())
        by_line = dict(zip((i for i, _ in requests),
                           (r.to_dict() for r in responses)))
    else:
        by_line = _run_batch_checkpointed(engine, lines, requests,
                                          state_dir, resume,
                                          checkpoint_every)
    failures = 0
    for i in range(len(lines)):
        envelope = by_line.get(i, parse_errors.get(i))
        if envelope is None:
            continue
        if not envelope.get("ok"):
            failures += 1
        outfile.write(json.dumps(envelope) + "\n")
    outfile.flush()
    return failures


def _run_batch_checkpointed(engine: AnalysisEngine, lines: List[str],
                            requests: List[Any], state_dir: str,
                            resume: bool, checkpoint_every: int
                            ) -> Dict[int, Dict[str, Any]]:
    """The journaled execution loop behind ``run_batch(state_dir=...)``."""
    os.makedirs(state_dir, exist_ok=True)
    fingerprint = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    journal_path = _batch_journal_path(state_dir)
    done: Dict[int, Dict[str, Any]] = {}
    if resume:
        done = _read_journal(journal_path, fingerprint) or {}
        engine.load_state(state_dir)
    pending = [(i, req) for i, req in requests if i not in done]
    if resume and done:
        log.info("batch resume: %d journaled, %d to run",
                 len(done), len(pending))
    chunk = max(1, int(checkpoint_every))
    mode = "a" if (resume and done) else "w"
    with open(journal_path, mode) as journal:
        if mode == "w":
            journal.write(json.dumps({"kind": "batch_journal",
                                      "fingerprint": fingerprint,
                                      "lines": len(lines)}) + "\n")
            journal.flush()
        for start in range(0, len(pending), chunk):
            part = pending[start:start + chunk]
            responses = engine.submit_many([req for _, req in part],
                                           received_at=time.time())
            for (i, _), response in zip(part, responses):
                envelope = response.to_dict()
                done[i] = envelope
                journal.write(json.dumps({"line": i,
                                          "envelope": envelope}) + "\n")
            journal.flush()
            os.fsync(journal.fileno())
            engine.save_state(state_dir)
    return done
