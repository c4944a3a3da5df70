"""Serve-tier concurrency: micro-batched clients vs one serial client.

Eight concurrent TCP clients each pipeline a dozen plain-mode sweep
requests (4-point eps windows over a 16-circuit catalog).  The asyncio
front-end drains whatever the clients have queued into single
``submit_many`` micro-batches, where same-circuit requests coalesce and
different circuits merge into cross-circuit tensor passes.  The
baseline is the same server answering the same 96 requests from one
closed-loop client with one request in flight at a time, so nothing
coalesces and every request is its own engine call.  The
aggregate-throughput ratio is the serve-tier acceptance gate (>= 3x)
and is recorded to ``BENCH_serve.json`` for the CI roll-up.
"""

import json
import socket
import threading
import time

import numpy as np

from repro.circuits.catalog import list_benchmarks
from repro.engine import AnalysisEngine, serve_tcp

from conftest import record_serve, write_result

#: 16 catalog circuits, skipping the two largest (c6288's multiplier
#: depth and i10's size dominate wall time without changing the story).
CATALOG = [name for name in list_benchmarks()
           if name not in ("c6288", "i10")][:16]

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 12
#: Pool of eps values; each request sweeps a narrow 4-point window —
#: the interactive workload shape (a designer probing a few points per
#: call).  Narrow requests are exactly where micro-batching pays: the
#: solo kernel's per-level-group Python overhead is amortized over only
#: 4 columns, while the merged tensor pass amortizes it over every
#: concurrent request at once.
EPS_POOL = [round(float(e), 6) for e in np.linspace(0.001, 0.2, 32)]
POINTS_PER_REQUEST = 4
OPTS = {"weights": "sampled", "n_patterns": 1 << 10, "seed": 1}


def _boot():
    """Start one server on an ephemeral port; return (engine, port)."""
    engine = AnalysisEngine(max_sessions=len(CATALOG) + 4)
    ready = threading.Event()
    box = {}

    def on_ready(port):
        box["port"] = port
        ready.set()

    thread = threading.Thread(
        target=serve_tcp, args=(engine, "127.0.0.1", 0),
        kwargs={"ready_callback": on_ready}, daemon=True)
    thread.start()
    assert ready.wait(30), "server never came up"
    return engine, box["port"]


def _request(client_idx, i):
    # Two circuits per client, interleaved: concurrent clients overlap on
    # circuits (coalescing fodder) *and* spread across the catalog
    # (tensor-batch fodder).
    name = CATALOG[(2 * client_idx + i) % len(CATALOG)]
    start = (client_idx * REQUESTS_PER_CLIENT + i) % (
        len(EPS_POOL) - POINTS_PER_REQUEST)
    return {"id": f"{client_idx}-{i}", "op": "analyze", "circuit": name,
            "eps": EPS_POOL[start:start + POINTS_PER_REQUEST],
            "correlation": False, "options": dict(OPTS)}


def _warm(port):
    """One serial pass over the catalog: both arms start with hot
    sessions, so the measured ratio is scheduling, not session builds."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=120)
    stream = sock.makefile("rwb")
    try:
        for name in CATALOG:
            stream.write((json.dumps({
                "op": "analyze", "circuit": name, "eps": EPS_POOL[:1],
                "correlation": False, "options": dict(OPTS)}) +
                "\n").encode())
            stream.flush()
            envelope = json.loads(stream.readline())
            assert envelope["ok"], envelope.get("error")
    finally:
        sock.close()


def _drive_serial(port):
    """One closed-loop client sends every request and waits for each
    answer before sending the next, in the order the clients' requests
    interleave."""
    requests = [_request(idx, i) for i in range(REQUESTS_PER_CLIENT)
                for idx in range(N_CLIENTS)]
    sock = socket.create_connection(("127.0.0.1", port), timeout=300)
    stream = sock.makefile("rwb")
    try:
        started = time.perf_counter()
        for request in requests:
            stream.write((json.dumps(request) + "\n").encode())
            stream.flush()
            envelope = json.loads(stream.readline())
            assert envelope["ok"], envelope.get("error")
        return time.perf_counter() - started
    finally:
        sock.close()


def _drive_clients(port):
    """All clients pipeline their full request list, then read replies."""
    errors = []

    def client(idx):
        try:
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=300)
            stream = sock.makefile("rwb")
            try:
                payload = "".join(
                    json.dumps(_request(idx, i)) + "\n"
                    for i in range(REQUESTS_PER_CLIENT))
                stream.write(payload.encode())
                stream.flush()
                for _ in range(REQUESTS_PER_CLIENT):
                    envelope = json.loads(stream.readline())
                    assert envelope["ok"], envelope.get("error")
            finally:
                sock.close()
        except Exception as exc:  # surfaced after join
            errors.append((idx, exc))

    threads = [threading.Thread(target=client, args=(idx,))
               for idx in range(N_CLIENTS)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    wall = time.perf_counter() - started
    assert not errors, errors
    return wall


def _measure(drive):
    engine, port = _boot()
    try:
        _warm(port)
        return drive(port)
    finally:
        engine.close()


def test_async_micro_batching_vs_serial():
    total = N_CLIENTS * REQUESTS_PER_CLIENT
    serial_wall = _measure(_drive_serial)
    async_wall = _measure(_drive_clients)
    speedup = serial_wall / async_wall
    serial_rps = total / serial_wall
    async_rps = total / async_wall

    record_serve("serial", 1, total, serial_wall, serial_rps)
    record_serve("async", N_CLIENTS, total, async_wall, async_rps,
                 speedup_vs_serial=speedup)

    lines = [
        f"serve-tier concurrency: {N_CLIENTS} pipelined TCP clients vs "
        f"1 serial client, {total} plain-mode sweep requests "
        f"({len(CATALOG)} circuits x {POINTS_PER_REQUEST}-point "
        "windows)",
        "",
        f"{'mode':<10s} {'wall_s':>8s} {'req/s':>8s} {'speedup':>8s}",
        f"{'serial':<10s} {serial_wall:>8.3f} {serial_rps:>8.1f} "
        f"{'1.00x':>8s}",
        f"{'async':<10s} {async_wall:>8.3f} {async_rps:>8.1f} "
        f"{speedup:>7.2f}x",
    ]
    write_result("serve_concurrency.txt", "\n".join(lines) + "\n")

    # The serve-tier acceptance gate: micro-batched dispatch must yield
    # at least 3x the serial client's aggregate throughput.
    assert speedup >= 3.0, (
        f"async serve speedup {speedup:.2f}x < 3x acceptance floor")
