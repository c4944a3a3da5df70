"""The four workloads: inputs from a seed, load from this process.

Each system under test runs in its own child process with default flags;
this process is the only load generator (one asyncio loop, at most two
connections).  A workload run returns its end-to-end metrics, the
correctness tally against the golden files and, for a traced run, the
per-layer numbers.  Inputs are endless seeded streams, so a run of any
length draws the same requests for the same seed.  See README.md for why
each workload exists.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import layers
import reference
from report import summarize
from speed import SEGMENT_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
TMP = RESULTS / "tmp"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Longest wait for any single child reply before the run is abandoned.
REPLY_TIMEOUT_S = 120.0

#: The shared metric declarations: names, units, directions and bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: (name, unit, better, bound) of a metric one workload alone reports.
Metric = Tuple[str, str, str, float]


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def python(*args: str) -> List[str]:
    return [sys.executable, *args]


class Child:
    """One started process, used as a context manager.

    Leaving the ``with`` block kills the process if it was not reaped
    yet, so no error path leaves a child behind.
    """

    def __init__(self, args: Sequence[str]):
        TMP.mkdir(parents=True, exist_ok=True)
        self.stderr_path = TMP / f"stderr-{os.getpid()}-{id(self)}.log"
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self.started = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                list(args), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, env=env, cwd=str(ROOT))
        self.rss_mb: Optional[float] = None

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.rss_mb is None:
            self._signal(signal.SIGKILL)
            self._reap()
        self.stderr_path.unlink(missing_ok=True)

    def _signal(self, sig: int) -> None:
        # os.kill, not Popen.send_signal: the latter may reap the child
        # itself, and then wait4 could no longer read its resource usage.
        try:
            os.kill(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def _watchdog(self) -> threading.Timer:
        timer = threading.Timer(REPLY_TIMEOUT_S, self._signal,
                                (signal.SIGKILL,))
        timer.daemon = True
        timer.start()
        return timer

    def readline(self) -> bytes:
        timer = self._watchdog()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise BenchError(f"child exited early: {self.stderr_tail()}")
        return line

    def read_all(self) -> bytes:
        timer = self._watchdog()
        try:
            return self.proc.stdout.read()
        finally:
            timer.cancel()

    def _reap(self) -> float:
        timer = self._watchdog()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.rss_mb

    def finish(self, what: str) -> float:
        """Wait for a clean exit; peak RSS in MB."""
        rss = self._reap()
        if self.proc.returncode != 0:
            raise BenchError(f"{what} exited with {self.proc.returncode}: "
                             f"{self.stderr_tail()}")
        return rss

    def stop(self, what: str) -> float:
        """SIGINT (the clean shutdown path of ``repro serve``), then wait."""
        self._signal(signal.SIGINT)
        return self.finish(what)

    def stderr_tail(self) -> str:
        try:
            return self.stderr_path.read_text()[-2000:]
        except OSError:
            return ""


def clean_tmp() -> None:
    shutil.rmtree(TMP, ignore_errors=True)


# ----------------------------------------------------------------------
# Run output and metric assembly
# ----------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.mismatches.extend(problems[:3])

    def envelope(self, envelope: Dict[str, Any], entry: Dict[str, Any],
                 indices: List[int], label: str) -> None:
        """Check one analysis envelope against a golden entry."""
        if not envelope.get("ok"):
            self.record([f"{label}: {envelope.get('error')}"])
        else:
            self.record(reference.check_points(
                entry, indices, envelope["result"]["points"], label))


@dataclass
class RunOutput:
    metrics: Dict[str, Dict[str, Any]]
    tally: Tally
    detail: Dict[str, Any] = field(default_factory=dict)
    chrome: List[dict] = field(default_factory=list)
    self_table: Dict[str, float] = field(default_factory=dict)


def e2e_metrics(setup: Sequence[float], latency_ms: Sequence[float],
                points: int, wall_s: float, rss_mb: Sequence[float],
                latency_value: Optional[float] = None
                ) -> Dict[str, Dict[str, Any]]:
    """Every end_to_end metric of BENCHMARK.json for one run."""
    if not latency_ms or wall_s <= 0:
        raise BenchError("no operation completed inside the run")
    samples = {"setup_s": setup, "latency_ms": latency_ms,
               "points_per_s": [points / wall_s], "peak_rss_mb": rss_mb}
    values = {"latency_ms": latency_value, "peak_rss_mb": max(rss_mb)}
    return {m["name"]: summarize(samples[m["name"]], m["unit"], m["better"],
                                 value=values.get(m["name"]))
            for m in SPEC["end_to_end"]}


def layer_metrics(*, op: Dict[str, float], setup: Dict[str, float],
                  counts: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per_layer metric of BENCHMARK.json for one traced run.

    ``setup.<layer>_s`` comes from ``setup`` (seconds in the set-up),
    ``<layer>_ms`` from ``op`` (milliseconds per workload operation),
    any other name from ``counts``.  A layer a workload never enters
    reads 0.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name.startswith("setup.") and name.endswith("_s"):
            value = setup.get(name[len("setup."):-len("_s")], 0.0)
        elif name.endswith("_ms"):
            value = op.get(name[:-len("_ms")], 0.0)
        else:
            value = counts.get(name, 0.0)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, as ``statistics.quantiles`` cuts it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def _layer_seconds(spans: List[layers.Span]) -> Dict[str, float]:
    totals = layers.by_layer(spans)
    totals["probability.bdd_wasted"] = layers.bdd_wasted(spans)
    return totals


def _split(spans: List[layers.Span], marker: str, count: int, ops: int
           ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(set-up seconds by layer, operation milliseconds by layer).

    The set-up phase ends with the ``count``-th top-level ``marker``
    span; operation totals are divided by the ``ops`` operations.
    """
    boundary = layers.split_after(spans, marker, count)
    setup = _layer_seconds(layers.phase(spans, before=boundary))
    op = _layer_seconds(layers.phase(spans, after=boundary))
    return setup, {k: v / ops * 1e3 for k, v in op.items()}


def speed_detail(speed: Speed) -> Dict[str, Any]:
    """What the speed probe saw: the CPU, probe times, scale factors."""
    detail: Dict[str, Any] = {"cpu": speed.cpu}
    if speed.factors:
        detail["probe_ms"] = summarize([p * 1e3 for p in speed.probes],
                                       "ms", "lower")
        detail["speed_factor"] = summarize(speed.factors, "x", "higher")
    return detail


def _balanced(walls: Dict[str, List[float]]) -> float:
    """Mean over keys of each key's median."""
    return _mean([statistics.median(v) for v in walls.values()])


@dataclass
class _System:
    """One system under test during the measured phase."""

    child: Child
    cursor: Any
    conns: List["_Conn"] = field(default_factory=list)
    records: List[Any] = field(default_factory=list)
    wall_s: float = 0.0
    #: Engine session misses during the measured phase (serve only).
    misses: int = 0


def _turns(systems: List[_System], seconds: float):
    """(system, seconds) turns of the measured phase.

    One system measures for the whole run.  Two (untraced, traced) take
    ABBA turns, each getting ``seconds`` in total, so drift on the
    machine hits both alike.
    """
    if len(systems) == 1:
        return [(systems[0], seconds)]
    order = [0, 1, 1, 0] * 2
    return [(systems[i], seconds * len(systems) / len(order)) for i in order]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """One workload run against a long-lived system under test.

    Untraced, :meth:`measure` sets the system up ``SETUP_REPEATS`` times
    in fresh processes and measures the last one.  Traced, it starts an
    untraced and a traced system side by side that take turns on the same
    input streams: per-layer metrics come from the traced one, and
    ``obs.trace_overhead_frac`` compares the two.

    Every set-up and every segment of traffic is scaled to reference
    speed by the probes around it (``speed.py``); traced runs are not.

    Subclasses give the system's ``command`` (``--trace-out PATH`` is
    appended for the traced one) and the hooks ``_start`` (spawn to set
    up), ``cursor`` (fresh input streams), ``drive`` (traffic until a
    deadline), ``_stop``, ``collect`` (check and summarize the answers)
    and ``attribute`` (per-layer numbers).
    """

    name = ""
    command: List[str] = []
    #: Metrics this workload reports beside the shared ones of
    #: BENCHMARK.json, which every workload must report.
    metrics: Tuple[Metric, ...] = ()

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.golden = reference.load(self.name)

    def rng(self, stream: str = "") -> random.Random:
        """The random source of one input stream of this seed."""
        return random.Random(f"{self.name}:{self.seed}:{stream}")

    def entry(self, key: str) -> Dict[str, Any]:
        return self.golden["entries"][key]

    def latency_value(self, latency_ms: List[float]) -> Optional[float]:
        """What ``latency_ms`` reports; None means the samples' median."""
        return None

    def own_metrics(self, samples: Dict[str, Sequence[float]],
                    values: Optional[Dict[str, float]] = None
                    ) -> Dict[str, Dict[str, Any]]:
        """Result entries of :attr:`metrics` (value: median by default)."""
        values = values or {}
        return {name: summarize(samples[name], unit, better,
                                value=values.get(name))
                for name, unit, better, _ in self.metrics}

    async def _start(self, child: Child, tally: Tally, setup_s: List[float],
                     ready_s: List[float]) -> _System:
        raise NotImplementedError

    def cursor(self) -> Any:
        raise NotImplementedError

    async def drive(self, system: _System, deadline: float) -> None:
        raise NotImplementedError

    async def _stop(self, system: _System) -> float:
        """Stop the system; its peak RSS in MB."""
        raise NotImplementedError

    def collect(self, system: _System, tally: Tally
                ) -> Tuple[List[float], int, Dict[str, Dict[str, Any]],
                           Dict[str, Any]]:
        """(latency samples ms, eps points answered, own metrics, detail)."""
        raise NotImplementedError

    def attribute(self, spans: List[layers.Span], system: _System
                  ) -> Tuple[Dict[str, float], Dict[str, float],
                             Dict[str, float]]:
        """(op ms by layer, set-up s by layer, counts) of a traced run."""
        raise NotImplementedError

    def measure(self, traced: bool) -> RunOutput:
        return asyncio.run(self._measure(traced))

    async def _setup(self, stack: ExitStack, args: List[str], speed: Speed,
                     tally: Tally, setup_s: List[float],
                     ready_s: List[float]) -> _System:
        """Spawn and set up one system; times at reference speed."""
        speed.start()
        child = stack.enter_context(Child(args))
        system = await self._start(child, tally, setup_s, ready_s)
        factor = speed.factor()
        setup_s[-1] *= factor
        ready_s[-1] *= factor
        return system

    async def _measure(self, traced: bool) -> RunOutput:
        speed = Speed(scale=not traced)
        setup_s: List[float] = []
        ready_s: List[float] = []
        rss: List[float] = []
        tally = Tally()
        for _ in range(0 if traced else SETUP_REPEATS - 1):
            with ExitStack() as stack:
                system = await self._setup(stack, self.command, speed, tally,
                                           setup_s, ready_s)
                rss.append(await self._stop(system))
        trace_path = TMP / f"{self.name}-{os.getpid()}.trace.json"
        variants = [self.command]
        if traced:
            variants.append(self.command + ["--trace-out", str(trace_path)])
        with ExitStack() as stack:
            systems = [await self._setup(stack, args, speed, tally, setup_s,
                                         ready_s) for args in variants]
            # Segments of about SEGMENT_S, each scaled by the probes that
            # bracket it (the last set-up's end probe starts the first).
            for system, seconds in _turns(systems, self.seconds):
                end = time.perf_counter() + seconds
                while time.perf_counter() < end:
                    first = len(system.records)
                    t0 = time.perf_counter()
                    await self.drive(system, min(end, t0 + SEGMENT_S))
                    wall = time.perf_counter() - t0
                    factor = speed.factor()
                    system.wall_s += wall * factor
                    system.records[first:] = [
                        (meta, rtt * factor, reply)
                        for meta, rtt, reply in system.records[first:]]
            for system in systems:
                rss.append(await self._stop(system))
        outs = []
        for system in systems:
            latency, points, own, detail = self.collect(system, tally)
            metrics = e2e_metrics(setup_s, latency, points, system.wall_s,
                                  rss, self.latency_value(latency))
            metrics.update(own)
            outs.append(RunOutput(metrics, tally, detail))
        out = outs[-1]
        out.detail["ready_s"] = summarize(ready_s, "s", "lower")
        out.detail.update(speed_detail(speed))
        if traced:
            spans = layers.read_trace(trace_path)
            op, setup, counts = self.attribute(spans, systems[-1])
            setup["process"] = ready_s[-1]
            counts["obs.trace_overhead_frac"] = (
                out.metrics["latency_ms"]["value"]
                / outs[0].metrics["latency_ms"]["value"] - 1.0)
            out.metrics.update(layer_metrics(op=op, setup=setup,
                                             counts=counts))
            out.chrome = layers.chrome_events(spans, 2, self.name)
            out.self_table = layers.self_table(spans)
        return out


class ColdCli(Workload):
    """Closed loop, one caller, one fresh ``repro analyze`` at a time.

    There is no long-lived system, so this workload has its own
    :meth:`measure`.
    """

    name = "cold_cli"
    #: The metric of each circuit's invocations.
    METRIC = {"c499": "cold_c499_s", "rand50k": "cold_rand50k_probe_s"}
    metrics = (("cold_c499_s", "s", "lower", 0.25),
               ("cold_rand50k_probe_s", "s", "lower", 0.25))

    def rounds(self) -> Iterator[List[Tuple[str, Any, int]]]:
        """Rounds of one invocation per circuit, in seeded order, so
        every run weighs the circuits equally whatever the seed."""
        rng = self.rng()
        circuits = reference.CIRCUITS[self.name]
        while True:
            order = list(circuits)
            rng.shuffle(order)
            yield [(c, outs, rng.randrange(len(reference.POOL)))
                   for c, outs, _ in order]

    @staticmethod
    def _setup_once(speed: Speed) -> float:
        """Interpreter start and import, at reference speed."""
        speed.start()
        with Child(python("-m", "repro", "--help")) as child:
            child.finish("repro --help")
            wall = time.perf_counter() - child.started
        return wall * speed.factor()

    @staticmethod
    def _invoke(speed: Speed, circuit: str, outputs, idx: int,
                trace_path: Optional[Path]) -> Tuple[float, float, dict]:
        """(wall s at reference speed, peak RSS MB, summary) of one fresh
        process: the CLI, or the traced replica when ``trace_path`` is
        given.  The previous probe starts the stretch."""
        eps = str(reference.POOL[idx])
        if trace_path is None:
            args = python("-m", "repro", "analyze", circuit, "--eps", eps,
                          "--json")
        else:
            args = python(str(HERE / "replica.py"), circuit, "--eps", eps,
                          "--trace-out", str(trace_path))
        if outputs:
            args += ["--outputs", ",".join(outputs)]
        with Child(args) as child:
            out = child.read_all()
            rss = child.finish(f"analyze {circuit}")
            wall = time.perf_counter() - child.started
        wall *= speed.factor()
        if trace_path is None:
            return wall, rss, {"doc": json.loads(out)}
        return wall, rss, json.loads(out.decode().strip().splitlines()[-1])

    def measure(self, traced: bool) -> RunOutput:
        speed = Speed(scale=not traced)
        setup = [self._setup_once(speed)
                 for _ in range(1 if traced else SETUP_REPEATS)]
        tally = Tally()
        # Untraced CLI walls (s) by circuit; traced replica walls, splits.
        walls: Dict[str, List[float]] = {}
        traced_walls: Dict[str, List[float]] = {}
        splits: Dict[str, List[Dict[str, float]]] = {}
        rss: List[float] = []
        cone_gates: List[float] = []
        out = RunOutput({}, tally)
        trace_path = TMP / f"replica-{os.getpid()}.json"
        ops = 0
        # Traced, every invocation is paired with a replica run of the same
        # input (in alternating order), and the run lasts three times as
        # long, so each circuit's numbers rest on a few pairs.
        deadline = time.perf_counter() + self.seconds * (3 if traced else 1)
        for round_ in self.rounds():
            if time.perf_counter() >= deadline:
                break
            for circuit, outputs, idx in round_:
                key = reference.entry_key(circuit, True, outputs)
                paths = [None, trace_path] if traced else [None]
                for path in (paths if ops % 2 == 0 else paths[::-1]):
                    wall, peak, summary = self._invoke(speed, circuit,
                                                       outputs, idx, path)
                    tally.record(reference.check_points(
                        self.entry(key), [idx], summary["doc"]["points"],
                        f"{key} op {ops}"))
                    if path is None:
                        walls.setdefault(circuit, []).append(wall)
                        rss.append(peak)
                        continue
                    spans = layers.read_trace(path)
                    traced_walls.setdefault(circuit, []).append(wall)
                    splits.setdefault(circuit, []).append(
                        self._replica_split(spans, wall, summary))
                    if outputs:
                        cone_gates.append(summary["gates"])
                    out.chrome += layers.chrome_events(spans, 100 + ops,
                                                       f"replica {key}")
                    for name, sec in layers.self_table(spans).items():
                        out.self_table[name] = (out.self_table.get(name, 0.0)
                                                + sec)
                ops += 1
        cli_ms = [w * 1e3 for v in walls.values() for w in v]
        # Circuit-balanced: the mean over circuits of each circuit's
        # median invocation.  One caller, so the CLI's busy time is the
        # measured wall time.
        out.metrics = e2e_metrics(setup, cli_ms, ops, sum(cli_ms) / 1e3,
                                  rss, latency_value=_balanced(walls) * 1e3)
        out.metrics.update(self.own_metrics(
            {self.METRIC[c]: v for c, v in walls.items()}))
        out.detail.update(speed_detail(speed))
        if traced:
            per_circuit = {c: {name: _mean([d[name] for d in v])
                               for name in v[0]}
                           for c, v in splits.items()}
            # Layer times are means (so they add up): set them beside the
            # mean of the paired untraced runs.
            out.detail["cold_split_ms"] = {
                c: {"layers": split,
                    "layers_sum": sum(v for k, v in split.items()
                                      if k != "probability.bdd_wasted"),
                    "untraced_mean": _mean(walls[c]) * 1e3}
                for c, split in per_circuit.items()}
            op = {name: _mean([d[name] for d in per_circuit.values()])
                  for name in next(iter(per_circuit.values()))}
            out.metrics.update(layer_metrics(
                op=op, setup={"process": statistics.median(setup)},
                counts={"scale.cone_gates": _mean(cone_gates),
                        "obs.trace_overhead_frac":
                            _balanced(traced_walls) / _balanced(walls)
                            - 1.0}))
        return out

    @staticmethod
    def _replica_split(spans: List[layers.Span], wall: float,
                       summary: Dict[str, Any]) -> Dict[str, float]:
        """Milliseconds per layer for one replica invocation."""
        totals = _layer_seconds(spans)
        in_spans = sum(s.duration for s in spans if s.top_level)
        totals["cli.import"] = summary["import_s"]
        totals["cli.process"] = wall - summary["import_s"] - in_spans
        return {k: v * 1e3 for k, v in totals.items()}


class _Conn:
    """One client connection to ``repro serve --tcp``."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "_Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 26)
        return cls(reader, writer)

    async def call(self, request: Dict[str, Any]) -> Tuple[float, bytes]:
        """(round-trip seconds, raw reply line); parsing is left for later."""
        data = (json.dumps(request) + "\n").encode()
        t0 = time.perf_counter()
        self.writer.write(data)
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(),
                                      REPLY_TIMEOUT_S)
        rtt = time.perf_counter() - t0
        if not line:
            raise BenchError("server closed the connection")
        return rtt, line

    async def session_misses(self) -> int:
        _, line = await self.call({"op": "stats"})
        return json.loads(line)["stats"]["session_misses"]

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


#: One measured request: (workload-specific meta, round trip s, reply).
Record = Tuple[Any, float, bytes]


class _ServeWorkload(Workload):
    """Shared plumbing for the two ``repro serve --tcp`` workloads.

    Subclasses set ``setup_requests`` and implement ``check_setup``,
    ``cursor``, ``drive`` and ``collect``.
    """

    command = python("-m", "repro", "serve", "--tcp", "127.0.0.1:0")
    setup_requests: List[Dict[str, Any]] = []
    #: Client connections during the measured phase.
    connections = 1
    #: Measured requests per workload operation.
    requests_per_op = 1

    def check_setup(self, tally: Tally, replies: List[bytes]) -> None:
        raise NotImplementedError

    def counts(self, envelopes: List[Dict[str, Any]]) -> Dict[str, float]:
        return {}

    async def _start(self, child, tally, setup_s, ready_s):
        banner = child.readline().decode().strip()
        if not banner.startswith("serving on "):
            raise BenchError(f"unexpected serve banner {banner!r}")
        ready_s.append(time.perf_counter() - child.started)
        port = int(banner.rsplit(":", 1)[1])
        conn = await _Conn.open(port)
        replies = [(await conn.call(r))[1] for r in self.setup_requests]
        setup_s.append(time.perf_counter() - child.started)
        self.check_setup(tally, replies)
        conns = [conn] + [await _Conn.open(port)
                          for _ in range(self.connections - 1)]
        system = _System(child, self.cursor(), conns)
        system.misses = -await conn.session_misses()
        return system

    async def _stop(self, system):
        system.misses += await system.conns[0].session_misses()
        for conn in system.conns:
            await conn.close()
        return system.child.stop("repro serve")

    def attribute(self, spans, system):
        records = system.records
        ops = len(records) // self.requests_per_op
        setup, op = _split(spans, "engine.request", len(self.setup_requests),
                           ops)
        envelopes = [json.loads(line) for _, _, line in records]
        tele = [e["telemetry"] for e in envelopes]
        engine_ms = sum(t["total_ms"] for t in tele)
        queue_ms = sum(t["queue_wait_ms"] for t in tele)
        rtt_ms = sum(rtt for _, rtt, _ in records) * 1e3
        # Engine time no finer span claims: request parsing, result
        # materialization, payload building, telemetry.
        op["engine.scheduler"] = engine_ms / ops - sum(
            v for k, v in op.items()
            if k in layers.SPAN_LAYERS and k != "engine.scheduler")
        op["engine.queue_wait"] = queue_ms / len(tele)
        op["engine.wire"] = (rtt_ms - queue_ms - engine_ms) / ops
        counts = {"engine.coalesced_mean": _mean([t["coalesced"]
                                                  for t in tele]),
                  "engine.session_misses_after_setup": system.misses,
                  **self.counts(envelopes)}
        return op, setup, counts


class WarmServe(_ServeWorkload):
    """Two closed-loop connections of interactive ``analyze`` traffic."""

    name = "warm_serve"
    metrics = (("serve_p90_ms", "ms", "lower", 0.25),
               ("serve_rps", "1/s", "higher", 0.25))
    #: Request mix of each connection: two designers, each on their own
    #: circuits.  Disjoint sets never coalesce, so how often the two
    #: loops happen to hit one session together cannot move a run.  Most
    #: requests are c499 on one side and c432 on the other, whose kernel
    #: calls take turns on the engine thread; the small circuits add
    #: payload- and wire-dominated requests.  The five sessions fit the
    #: default 8-session LRU, so none is rebuilt.
    MIXES = ({"c499": 6, "cu": 1}, {"c432": 6, "c17": 1, "x2": 1})
    WIDTHS = (1, 4, 32)
    connections = len(MIXES)

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.circuits = [c for mix in self.MIXES for c in mix]
        self.setup_requests = [{"op": "analyze", "circuit": c, "eps": [0.05]}
                               for c in self.circuits]

    def requests(self, index: int) -> Iterator[Tuple[str, List[int]]]:
        """Connection ``index``'s (circuit, pool indices) requests.

        They come in blocks, each a shuffle of the connection's mix, and
        widths in shuffled triples, so every run keeps the mix and asks
        for the same number of points per request whatever the seed.
        """
        rng = self.rng(f"conn{index}")
        block = [c for c, n in self.MIXES[index].items() for _ in range(n)]
        widths: List[int] = []
        while True:
            order = list(block)
            rng.shuffle(order)
            while len(widths) < len(order):
                triple = list(self.WIDTHS)
                rng.shuffle(triple)
                widths += triple
            for circuit in order:
                yield circuit, sorted(rng.sample(range(len(reference.POOL)),
                                                 widths.pop(0)))

    def cursor(self):
        return [self.requests(i) for i in range(len(self.MIXES))]

    def latency_value(self, latency_ms):
        # A request waits for whatever part of the other connection's
        # request is still running, which depends on how the two loops'
        # phases drift: the samples spread over a continuum from one to
        # two kernel calls, and their median moved by 18% from run to
        # run.  The mean is fixed by the request rate (two requests in
        # flight: mean = 2 / rate).
        return statistics.fmean(latency_ms)

    def _check(self, tally: Tally, circuit: str, indices: List[int],
               line: bytes, label: str) -> Dict[str, Any]:
        envelope = json.loads(line)
        tally.envelope(envelope,
                       self.entry(reference.entry_key(circuit, True)),
                       indices, f"{label} {circuit}")
        return envelope

    def check_setup(self, tally, replies):
        for circuit, line in zip(self.circuits, replies):
            self._check(tally, circuit, [reference.eps_index(0.05)], line,
                        "setup")

    async def drive(self, system, deadline):
        # Each connection stops at its first reply past the deadline; the
        # other's last request has queued behind that one, as in the
        # steady closed loop.
        async def loop(conn: _Conn, requests) -> None:
            while time.perf_counter() < deadline:
                circuit, indices = next(requests)
                rtt, line = await conn.call(
                    {"op": "analyze", "circuit": circuit,
                     "eps": [reference.POOL[i] for i in indices]})
                system.records.append(((circuit, indices), rtt, line))

        await asyncio.gather(*(loop(conn, requests) for conn, requests
                               in zip(system.conns, system.cursor)))

    def collect(self, system, tally):
        kernel_by_width: Dict[int, List[float]] = {}
        for (circuit, indices), _, line in system.records:
            envelope = self._check(tally, circuit, indices, line, "analyze")
            if envelope.get("ok"):
                kernel_by_width.setdefault(len(indices), []).append(
                    envelope["telemetry"]["kernel_ms"])
        detail = {f"kernel_ms.w{w}": summarize(v, "ms", "lower")
                  for w, v in sorted(kernel_by_width.items())}
        latency = [rtt * 1e3 for _, rtt, _ in system.records]
        own = self.own_metrics(
            {"serve_p90_ms": latency,
             "serve_rps": [len(latency) / system.wall_s]},
            {"serve_p90_ms": percentile(latency, 90)})
        points = sum(len(meta[1]) for meta, _, _ in system.records)
        return latency, points, own, detail


class EditLoop(_ServeWorkload):
    """One connection: edit, reanalyze, read, on a named edit session."""

    name = "edit_loop"
    metrics = (("edit_p50_ms", "ms", "lower", 0.25),
               ("reanalyze_p50_ms", "ms", "lower", 0.25),
               ("read_p50_ms", "ms", "lower", 0.25))
    SESSION = "bench-edit"
    READ_WIDTH = 4
    requests_per_op = 3

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.setup_requests = [{"op": "reanalyze", "session": self.SESSION,
                                "circuit": reference.EDIT_CIRCUIT}]

    def cycles(self) -> Iterator[Tuple[Dict[str, Any], Optional[str], int,
                                       List[int]]]:
        """(edit, swapped gate after it, eps index, read indices) cycles.

        At most one gate differs from the original at any time: a swap
        is undone on the next swap edit, so every reachable state has a
        golden entry and the netlist size never drifts.  Gates are taken
        in shuffled rounds of all 16: their cones differ in size, and a
        run that happened to pick the large ones would read slower.
        """
        rng = self.rng()
        gates = self.golden["gates"]
        swapped, eps = None, 0.05
        order: List[str] = []
        while True:
            if rng.random() < 0.9:
                if swapped is None:
                    if not order:
                        order = sorted(gates)
                        rng.shuffle(order)
                    swapped = order.pop()
                    edit = {"kind": "swap_gate", "gate": swapped,
                            "gate_type": gates[swapped][1]}
                else:
                    edit = {"kind": "swap_gate", "gate": swapped,
                            "gate_type": gates[swapped][0]}
                    swapped = None
            else:
                eps = rng.choice(self.golden["set_eps"])
                edit = {"kind": "set_eps", "eps": eps}
            reads = sorted(rng.sample(range(len(reference.POOL)),
                                      self.READ_WIDTH))
            yield edit, swapped, reference.eps_index(eps), reads

    def cursor(self):
        return enumerate(self.cycles())

    def check_setup(self, tally, replies):
        tally.envelope(json.loads(replies[0]),
                       self.entry(reference.edit_key(None)),
                       [reference.eps_index(0.05)], "setup")

    async def drive(self, system, deadline):
        while time.perf_counter() < deadline:
            n, (edit, state, eps_idx, reads) = next(system.cursor)
            for kind, request in (
                    ("edit", {"op": "edit", "session": self.SESSION,
                              "edits": [edit]}),
                    ("reanalyze", {"op": "reanalyze",
                                   "session": self.SESSION}),
                    ("read", {"op": "analyze", "session": self.SESSION,
                              "eps": [reference.POOL[i] for i in reads]})):
                rtt, line = await system.conns[0].call(request)
                system.records.append(((n, kind, state, eps_idx, reads),
                                       rtt, line))

    def counts(self, envelopes):
        reports = [r for e in envelopes if e.get("op") == "edit"
                   for r in e["result"]["reports"]]
        return {"incremental.dirty_nodes_mean": _mean(
                    [r["dirty_nodes"] for r in reports]),
                "incremental.relowered_per_edit": _mean(
                    [sum(v == "relowered" for v in r["plans"].values())
                     for r in reports])}

    def collect(self, system, tally):
        by_kind: Dict[str, List[float]] = {}
        cycles: Dict[int, float] = {}
        points = 0
        for (n, kind, state, eps_idx, reads), rtt, line in system.records:
            envelope = json.loads(line)
            label = f"{kind} {n} state={state}"
            if kind == "edit":
                tally.record([] if envelope.get("ok") else
                             [f"{label}: {envelope.get('error')}"])
            else:
                indices = [eps_idx] if kind == "reanalyze" else reads
                tally.envelope(envelope,
                               self.entry(reference.edit_key(state)),
                               indices, label)
                points += len(indices)
            by_kind.setdefault(kind, []).append(rtt * 1e3)
            cycles[n] = cycles.get(n, 0.0) + rtt * 1e3
        own = self.own_metrics({f"{kind}_p50_ms": v
                                for kind, v in by_kind.items()})
        return list(cycles.values()), points, own, {}


class BatchPlain(Workload):
    """Seeded 64-request plain-mode batches through ``submit_many``."""

    name = "batch_plain"
    command = python(str(HERE / "batch_worker.py"))
    BATCH = 64
    WINDOW = 4

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.circuits = [c for c, _, _ in reference.CIRCUITS[self.name]]

    def batches(self) -> Iterator[List[Tuple[str, List[int]]]]:
        rng = self.rng()
        last_start = len(reference.POOL) - self.WINDOW
        while True:
            batch = []
            for _ in range(self.BATCH):
                start = rng.randint(0, last_start)
                batch.append((rng.choice(self.circuits),
                              list(range(start, start + self.WINDOW))))
            yield batch

    def cursor(self):
        return self.batches()

    @staticmethod
    def _send(child: Child, phase: str, batch) -> Tuple[float, List[bytes]]:
        requests = [{"op": "analyze", "circuit": c, "correlation": False,
                     "eps": [reference.POOL[i] for i in indices]}
                    for c, indices in batch]
        message = json.dumps({"phase": phase, "requests": requests})
        t0 = time.perf_counter()
        child.proc.stdin.write((message + "\n").encode())
        child.proc.stdin.flush()
        lines = [child.readline() for _ in range(len(batch) + 1)]
        return time.perf_counter() - t0, lines

    def _check(self, tally: Tally, batch, lines: List[bytes]) -> None:
        for (circuit, indices), line in zip(batch, lines[:-1]):
            tally.envelope(json.loads(line),
                           self.entry(reference.entry_key(circuit, False)),
                           indices, f"batch {circuit}")

    async def _start(self, child, tally, setup_s, ready_s):
        child.readline()
        ready_s.append(time.perf_counter() - child.started)
        batch = [(c, [reference.eps_index(0.05)]) for c in self.circuits]
        _, lines = self._send(child, "setup", batch)
        setup_s.append(time.perf_counter() - child.started)
        self._check(tally, batch, lines)
        return _System(child, self.cursor())

    async def drive(self, system, deadline):
        # Blocking pipe I/O is fine here: no other task shares the loop.
        while time.perf_counter() < deadline:
            batch = next(system.cursor)
            rtt, lines = self._send(system.child, "op", batch)
            system.records.append((batch, rtt, lines))

    async def _stop(self, system):
        system.child.proc.stdin.close()
        return system.child.finish("batch worker")

    def collect(self, system, tally):
        for batch, _, lines in system.records:
            self._check(tally, batch, lines)
        latency = [rtt * 1e3 for _, rtt, _ in system.records]
        points = sum(len(i) for batch, _, _ in system.records
                     for _, i in batch)
        return latency, points, {}, {}

    def attribute(self, spans, system):
        ops = len(system.records)
        setup, op = _split(spans, "bench.setup", 1, ops)
        envelopes = [json.loads(line) for _, _, lines in system.records
                     for line in lines[:-1]]
        done = [json.loads(lines[-1]) for _, _, lines in system.records]
        worker_ms = sum(d["engine_s"] + d["payload_s"] for d in done) * 1e3
        tele = [e["telemetry"] for e in envelopes if e.get("ok")]
        tensor = [t for t in tele if t["ladder"] == "single-pass-tensor"]
        op["engine.queue_wait"] = _mean([t["queue_wait_ms"] for t in tele])
        op["engine.wire"] = (sum(rtt for _, rtt, _ in system.records) * 1e3
                             - worker_ms) / ops
        counts = {"engine.coalesced_mean": _mean([t["coalesced"]
                                                  for t in tele]),
                  "engine.tensor_share": len(tensor) / len(tele),
                  "engine.batch_circuits_mean": _mean(
                      [t["batch_circuits"] for t in tensor])}
        return op, setup, counts


WORKLOADS = {w.name: w for w in (ColdCli, WarmServe, BatchPlain, EditLoop)}

#: Bound of every metric ``compare`` judges: the shared ones of
#: BENCHMARK.json and each workload's own.
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BOUNDS.update({name: bound for w in WORKLOADS.values()
               for name, _, _, bound in w.metrics})
