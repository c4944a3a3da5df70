"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``info``         circuit structure statistics
``analyze``      single-pass reliability for one or more eps values
``mc``           Monte Carlo reliability (fault injection baseline)
``closed``       observability-based closed-form reliability
``curve``        delta(eps) sweep comparing single-pass and Monte Carlo
``stratified``   rare-event (small-eps) stratified estimate
``testability``  stuck-at fault simulation profile
``harden``       budgeted reliability-driven hardening allocation
``compare``      every estimator side by side at one eps
``report``       full markdown/JSON reliability report
``convert``      netlist format conversion (.bench / .blif / .v)
``bench``        list the built-in benchmark catalog
``serve``        persistent engine answering JSON requests (stdio / TCP)
``batch``        run a requests.jsonl through the engine scheduler
``top``          live stats table polled from a serving engine
``profile``      one traced analysis: phase breakdown + Chrome trace

Circuits are referenced either by a file path (``.bench`` or ``.blif``) or
by a built-in catalog name (``repro bench`` lists them).  The full
flag-by-flag reference lives in ``docs/cli.md`` (cross-checked by
``tests/test_docs.py``).

Every subcommand also accepts the observability flags (see
docs/observability.md): ``-v/-vv`` for structured logging,
``--metrics-out FILE`` for a JSON-lines run report with per-phase span
timings and engine metrics, and ``--trace-out FILE`` for a Chrome
``chrome://tracing`` timeline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import obs
from .circuit import Circuit, circuit_stats, is_sequential
from .circuits import (
    benchmark_entry,
    get_benchmark,
    get_sequential_benchmark,
    list_benchmarks,
    list_sequential_benchmarks,
    sequential_benchmark_entry,
)
from .io import load_bench, load_blif, save_bench, save_blif, save_verilog
from .obs import metrics as obs_metrics
from .obs import runlog as obs_runlog
from .obs import trace_span
from .spec import parse_eps_list
from .reliability import ObservabilityModel, SinglePassAnalyzer
from .sim import monte_carlo_reliability

log = obs.get_logger("cli")


class _ObsSession:
    """Per-invocation observability plumbing shared by every subcommand.

    Created by :func:`main` from the common ``-v`` / ``--metrics-out`` /
    ``--trace-out`` flags; stored on the parsed namespace so command
    handlers can emit one runlog record per unit of work (e.g. per eps
    point).  ``finish`` writes a catch-all record for commands that never
    emitted and dumps the Chrome trace.
    """

    def __init__(self, command: str,
                 metrics_out: Optional[str],
                 trace_out: Optional[str],
                 verbose: int):
        self.command = command
        self.metrics_out = metrics_out
        self.trace_out = trace_out
        self.records_emitted = 0
        self._prev_phases: Dict[str, float] = {}
        self.enabled = bool(metrics_out or trace_out)
        if verbose:
            obs.configure_logging(verbose)
        if self.enabled:
            obs.reset()
            obs.enable()
            # Fail fast on unwritable paths before any analysis runs
            # (--trace-out is only written at the very end of the run).
            for label, out in (("--metrics-out", metrics_out),
                               ("--trace-out", trace_out)):
                if not out:
                    continue
                try:  # also truncates, so one file holds exactly one run
                    Path(out).write_text("")
                except OSError as exc:
                    raise SystemExit(f"cannot write {label} file "
                                     f"{out!r}: {exc}") from exc

    def emit(self, circuit=None,
             params: Optional[Dict[str, Any]] = None,
             results: Optional[Dict[str, Any]] = None) -> None:
        """Append one runlog record covering the work since the last emit."""
        if not self.metrics_out:
            return
        record = obs_runlog.build_record(self.command, circuit=circuit,
                                         params=params, results=results)
        # Phase entries are tracer totals; report this record's share only.
        now = {p["name"]: p["duration_s"] for p in record.phases}
        record.phases = [
            {"name": name, "duration_s": duration - self._prev_phases.get(
                name, 0.0)}
            for name, duration in sorted(now.items())
            if duration - self._prev_phases.get(name, 0.0) > 0.0]
        self._prev_phases = now
        obs_runlog.append_record(self.metrics_out, record)
        self.records_emitted += 1

    def finish(self) -> None:
        if not self.enabled:
            return
        if self.metrics_out and self.records_emitted == 0:
            self.emit()
        if self.trace_out:
            obs.get_tracer().write_chrome_trace(self.trace_out)
            log.info("wrote Chrome trace to %s", self.trace_out)
        if self.metrics_out:
            log.info("wrote %d runlog record(s) to %s",
                     self.records_emitted, self.metrics_out)
        obs.disable()


def _load_netlist(ref: str):
    """Load a :class:`Circuit` or :class:`SequentialCircuit` by path/name."""
    path = Path(ref)
    with trace_span("cli.load_circuit", ref=ref):
        if path.exists():
            if path.suffix == ".bench":
                return load_bench(path)
            if path.suffix == ".blif":
                return load_blif(path)
            raise SystemExit(f"unsupported netlist extension: {path.suffix}")
        try:
            circuit = get_benchmark(ref)
        except KeyError:
            try:
                circuit = get_sequential_benchmark(ref)
            except KeyError:
                raise SystemExit(
                    f"{ref!r} is neither a file nor a known benchmark "
                    f"(try: repro bench)") from None
            log.info("loaded sequential benchmark %s (%d flops)", ref,
                     circuit.num_flops)
            return circuit
        log.info("loaded benchmark %s (%d nodes)", ref, len(circuit))
        return circuit


def _load_circuit(ref: str, frames: Optional[int] = None) -> Circuit:
    """Load and, for sequential netlists, unroll into ``frames`` frames.

    A stateful netlist without ``frames`` exits with the same guidance
    the library raises (``pass frames=k ...``) instead of a traceback.
    """
    from .engine.session import resolve_analysis_circuit
    raw = _load_netlist(ref)
    try:
        return resolve_analysis_circuit(raw, frames)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _eps_list(spec: str) -> List[float]:
    # One canonical parser (repro.spec); the CLI only converts its
    # ValueError messages into exit-status errors.
    try:
        return parse_eps_list(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_info(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    stats = circuit_stats(circuit)
    print(stats.as_row())
    print(f"outputs: {', '.join(circuit.outputs[:12])}"
          + (" ..." if len(circuit.outputs) > 12 else ""))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    for name in list_benchmarks():
        entry = benchmark_entry(name)
        paper = f"paper-gates={entry.paper_gates}" if entry.paper_gates else ""
        print(f"{name:16s} {entry.description} {paper}")
    for name in list_sequential_benchmarks():
        entry = sequential_benchmark_entry(name)
        print(f"{name:16s} {entry.description} flops={entry.flops} "
              f"(use --frames)")
    if getattr(args, "large", False):
        from .circuits import large_catalog
        for name in large_catalog():
            entry = benchmark_entry(name)
            print(f"{name:16s} {entry.description} "
                  f"(large preset; try --outputs probe_small)")
    return 0


def _analyze_steady_state(args: argparse.Namespace, seq) -> int:
    """The ``analyze --steady-state`` path: fixed point of the frame
    recurrence instead of a k-frame unroll."""
    from .reliability import SequentialAnalyzer
    if not is_sequential(seq):
        raise SystemExit(
            f"--steady-state requires a sequential circuit; "
            f"{seq.name!r} has no state elements")
    analyzer = SequentialAnalyzer(
        seq, use_correlation=not args.no_correlation,
        weight_method=args.weights, seed=args.seed,
        max_correlation_level_gap=args.level_gap,
        compiled=args.compiled,
        weights_cache_dir=args.weights_cache)
    points = []
    for eps in _eps_list(args.eps):
        t0 = time.perf_counter()
        ss = analyzer.steady_state(eps)
        elapsed = time.perf_counter() - t0
        points.append({"eps": eps, **ss.to_dict()})
        if not args.json:
            status = "converged" if ss.converged else "NOT converged"
            print(f"eps={eps}: steady state after {ss.iterations} frame(s) "
                  f"({status}, residual {ss.residual:.2e}, "
                  f"{elapsed * 1000:.1f} ms)")
            for q, p in ss.state_flip.items():
                print(f"  flip[{q}] = {p:.6f}")
            for out, delta in ss.per_output.items():
                print(f"  delta[{out}] = {delta:.6f}")
        args.obs_session.emit(
            circuit=seq.core,
            params={"eps": eps, "seed": args.seed,
                    "weights": args.weights,
                    "no_correlation": args.no_correlation,
                    "steady_state": True},
            results=ss.to_dict())
    if args.json:
        print(json.dumps({"circuit": seq.name, "command": "analyze",
                          "steady_state": True, "points": points}, indent=2))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .engine.requests import analyze_payload
    from .engine.session import resolve_analysis_circuit
    raw = _load_netlist(args.circuit)
    outputs = ([o for o in args.outputs.split(",") if o]
               if args.outputs else None)
    if args.steady_state:
        if outputs:
            raise SystemExit("--outputs is not supported with "
                             "--steady-state")
        return _analyze_steady_state(args, raw)
    try:
        circuit = resolve_analysis_circuit(raw, args.frames)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        analyzer = SinglePassAnalyzer(
            circuit, use_correlation=not args.no_correlation,
            weight_method=args.weights, seed=args.seed,
            max_correlation_level_gap=args.level_gap,
            compiled=args.compiled,
            weights_cache_dir=args.weights_cache,
            frames=args.frames, outputs=outputs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    log.info("analyzer ready (weights: %s)", analyzer.weights.source)
    eps_values = _eps_list(args.eps)
    results = []
    timings = []

    def report_point(eps: float, result, elapsed: float) -> None:
        results.append(result)
        timings.append(elapsed)
        if not args.json:
            print(f"eps={eps}: ({elapsed * 1000:.1f} ms, "
                  f"{result.correlation_pairs} corr pairs)")
            per_frame = result.per_frame
            if per_frame is not None:
                for t, frame in enumerate(per_frame):
                    for out, delta in frame.items():
                        print(f"  frame {t}: delta[{out}] = {delta:.6f}")
            else:
                for out, delta in result.per_output.items():
                    print(f"  delta[{out}] = {delta:.6f}")
        params = {"eps": eps, "seed": args.seed,
                  "weights": args.weights,
                  "no_correlation": args.no_correlation,
                  "level_gap": args.level_gap,
                  "compiled": args.compiled,
                  "jobs": args.jobs}
        if args.frames is not None:
            params["frames"] = args.frames
        if outputs:
            params["outputs"] = list(outputs)
        args.obs_session.emit(
            circuit=circuit,
            params=params,
            results=result.to_dict())

    if analyzer.uses_compiled and args.jobs > 1:
        print("warning: --jobs ignored: the compiled kernel evaluates all "
              "eps points in one vectorized sweep (use --compiled off to "
              "force the scalar process pool)", file=sys.stderr)
    # One batched sweep when the compiled kernel handles it (or when the
    # scalar points fan out over a process pool); otherwise per-point runs
    # so each point's timing and phases are individually attributable.
    if analyzer.uses_compiled or args.jobs > 1:
        t0 = time.perf_counter()
        sweep = analyzer.sweep(eps_values, jobs=args.jobs)
        elapsed = (time.perf_counter() - t0) / len(eps_values)
        for j, eps in enumerate(eps_values):
            report_point(eps, sweep.point(j), elapsed)
    else:
        for eps in eps_values:
            t0 = time.perf_counter()
            result = analyzer.run(eps)
            report_point(eps, result, time.perf_counter() - t0)
    if args.json:
        # Same payload builder `repro serve` envelopes use, so a serve
        # "result" byte-matches this document minus the timing list.
        doc = analyze_payload(circuit.name, eps_values, results)
        doc["elapsed_s"] = timings
        print(json.dumps(doc, indent=2))
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    for eps in _eps_list(args.eps):
        t0 = time.perf_counter()
        result = monte_carlo_reliability(circuit, eps,
                                         n_patterns=args.patterns,
                                         seed=args.seed)
        elapsed = time.perf_counter() - t0
        print(f"eps={eps}: ({elapsed:.2f} s, {args.patterns} patterns)")
        for out, delta in result.per_output.items():
            print(f"  delta[{out}] = {delta:.6f}")
        print(f"  any-output = {result.any_output:.6f}")
        args.obs_session.emit(
            circuit=circuit,
            params={"eps": eps, "patterns": args.patterns,
                    "seed": args.seed},
            results={"per_output": {o: float(d) for o, d
                                    in result.per_output.items()},
                     "any_output": float(result.any_output),
                     "n_patterns": result.n_patterns})
    return 0


def _cmd_closed(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    output = args.output or circuit.outputs[0]
    model = ObservabilityModel(circuit, output=output, seed=args.seed)
    for eps in _eps_list(args.eps):
        print(f"eps={eps}: delta[{output}] = {model.delta(eps):.6f}")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    output = args.output or circuit.outputs[0]
    analyzer = SinglePassAnalyzer(
        circuit, seed=args.seed,
        max_correlation_level_gap=args.level_gap,
        compiled=args.compiled,
        weights_cache_dir=args.weights_cache)
    eps_values = [args.max_eps * i / (args.points - 1)
                  for i in range(args.points)]
    if analyzer.uses_compiled and args.jobs > 1:
        print("warning: --jobs ignored: the compiled kernel evaluates all "
              "eps points in one vectorized sweep (use --compiled off to "
              "force the scalar process pool)", file=sys.stderr)
    # The whole single-pass column is one sweep: a single vectorized pass
    # on the compiled path, a process-pool fan-out with --jobs otherwise.
    sp_curve = analyzer.curve(eps_values, output=output, jobs=args.jobs)
    print(f"# {circuit.name} output={output}")
    print(f"{'eps':>8s} {'single-pass':>12s} {'monte-carlo':>12s}")
    for i, eps in enumerate(eps_values):
        mc = monte_carlo_reliability(circuit, eps, n_patterns=args.patterns,
                                     seed=args.seed + i).per_output[output]
        print(f"{eps:8.4f} {sp_curve[eps]:12.6f} {mc:12.6f}")
    return 0


def _cmd_testability(args: argparse.Namespace) -> int:
    from .testing import full_fault_list, simulate_faults
    circuit = _load_circuit(args.circuit)
    faults = full_fault_list(circuit)
    sim = simulate_faults(circuit, faults, n_patterns=args.patterns,
                          seed=args.seed,
                          exhaustive=len(circuit.inputs) <= args.exhaustive_limit)
    print(f"{len(faults)} stuck-at faults, "
          f"{sim.n_patterns} patterns, coverage {sim.coverage() * 100:.1f}%")
    hard = sorted(sim.detections, key=sim.detections.get)[:args.top]
    print(f"hardest {len(hard)} faults:")
    for fault in hard:
        print(f"  {str(fault):16s} detection prob = "
              f"{sim.detection_probability(fault):.5f}")
    return 0


def _cmd_stratified(args: argparse.Namespace) -> int:
    from .sim import StratifiedEstimator
    circuit = _load_circuit(args.circuit)
    estimator = StratifiedEstimator(circuit, max_failures=args.max_failures,
                                    n_patterns=args.patterns,
                                    samples_per_stratum=args.samples,
                                    seed=args.seed)
    for eps in _eps_list(args.eps):
        result = estimator.evaluate(eps)
        print(f"eps={eps:g}: any-output = {result.any_output:.3e} "
              f"(tail bound {result.tail_bound:.1e})")
        for out, delta in result.per_output.items():
            print(f"  delta[{out}] = {delta:.3e}")
        args.obs_session.emit(
            circuit=circuit,
            params={"eps": eps, "max_failures": args.max_failures,
                    "patterns": args.patterns, "samples": args.samples,
                    "seed": args.seed},
            results={"per_output": {o: float(d) for o, d
                                    in result.per_output.items()},
                     "any_output": float(result.any_output),
                     "tail_bound": float(result.tail_bound)})
    return 0


def _cmd_harden(args: argparse.Namespace) -> int:
    from .apps import allocate_hardening
    from .reliability import ObservabilityModel
    circuit = _load_circuit(args.circuit)
    output = args.output or circuit.outputs[0]
    model = ObservabilityModel(circuit, output=output, seed=args.seed)
    result = allocate_hardening(model, args.eps_value, args.budget)
    upgraded = [g for g, u in result.upgrades.items() if u is not None]
    print(f"output {output}: delta {result.delta_before:.6f} -> "
          f"{result.delta_after:.6f} "
          f"({result.improvement * 100:.1f}% better), "
          f"spent {result.spent:.1f}/{args.budget:g}")
    print(f"upgraded {len(upgraded)} gates: "
          + ", ".join(sorted(upgraded)[:12])
          + (" ..." if len(upgraded) > 12 else ""))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .reliability import compare_methods
    circuit = _load_circuit(args.circuit)
    eps_values = _eps_list(args.eps)
    for eps in eps_values:
        comparison = compare_methods(circuit, eps,
                                     mc_patterns=args.patterns,
                                     seed=args.seed)
        print(comparison.as_table())
        if eps != eps_values[-1]:
            print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import ReportConfig, build_report
    circuit = _load_circuit(args.circuit)
    config = ReportConfig(mc_patterns=args.patterns, seed=args.seed,
                          include_testability=not args.no_testability,
                          weights_cache_dir=args.weights_cache)
    report = build_report(circuit, config)
    text = report.to_json() if args.json else report.to_markdown()
    args.obs_session.emit(circuit=circuit,
                          params={"patterns": args.patterns,
                                  "seed": args.seed},
                          results=report.to_dict())
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    # Conversion is netlist-to-netlist: state elements pass through
    # unchanged (.bench DFF lines <-> BLIF .latch), no unrolling.
    circuit = _load_netlist(args.circuit)
    out = Path(args.out)
    if out.suffix == ".bench":
        save_bench(circuit, out)
    elif out.suffix == ".blif":
        save_blif(circuit, out)
    elif out.suffix in (".v", ".sv"):
        if is_sequential(circuit):
            raise SystemExit(
                f"Verilog export does not support state elements yet; "
                f"convert {args.circuit!r} to .bench or .blif instead")
        save_verilog(circuit, out)
    else:
        raise SystemExit(f"unsupported output extension: {out.suffix}")
    print(f"wrote {out}")
    return 0


def _make_engine(args: argparse.Namespace) -> "AnalysisEngine":
    from .engine import AnalysisEngine
    state_dir = getattr(args, "state_dir", None)
    # A state directory doubles as the warm artifact store: unless the
    # weight cache is pointed elsewhere, replicas sharing one --state-dir
    # also share weight vectors and correlation plans through it.
    return AnalysisEngine(
        max_sessions=args.max_sessions,
        weights_cache_dir=args.weights_cache or state_dir,
        jobs=args.jobs,
        default_timeout_s=args.timeout,
        state_dir=state_dir)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .engine import serve_stream, serve_tcp, serve_tcp_threaded
    engine = _make_engine(args)
    if engine.state_dir:
        summary = engine.load_state()
        if summary["found"]:
            log.info("restored %d edit session(s) from %s",
                     summary["sessions"], engine.state_dir)
            for err in summary["errors"]:
                log.warning("state restore skipped: %s", err)
    try:
        if args.tcp:
            host, _, port = args.tcp.rpartition(":")
            if not host:
                raise SystemExit(
                    f"invalid --tcp address {args.tcp!r}: expected HOST:PORT")
            try:
                port_num = int(port)
            except ValueError:
                raise SystemExit(
                    f"invalid --tcp port {port!r}: expected an integer"
                ) from None

            def ready(bound_port: int) -> None:
                # Machine-parseable readiness line: supervisors (and the
                # crash-resume test) read the bound port from stdout.
                print(f"serving on {host}:{bound_port}", flush=True)

            if args.threaded:
                serve_tcp_threaded(engine, host, port_num,
                                   ready_callback=ready)
            else:
                serve_tcp(engine, host, port_num, ready_callback=ready,
                          max_inflight=args.max_inflight,
                          snapshot_interval=args.snapshot_interval)
        else:
            served = serve_stream(engine, sys.stdin, sys.stdout)
            log.info("served %d request(s)", served)
    except KeyboardInterrupt:
        pass
    finally:
        if engine.state_dir:
            try:
                engine.save_state()
            except Exception as exc:  # noqa: BLE001 - shutdown best-effort
                log.warning("final state snapshot failed: %s", exc)
        engine.close()
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .engine import run_batch
    path = Path(args.requests)
    if not path.exists():
        raise SystemExit(f"no such requests file: {args.requests}")
    lines = path.read_text().splitlines()
    engine = _make_engine(args)
    batch_kwargs = dict(jobs=args.jobs, state_dir=engine.state_dir,
                        resume=args.resume,
                        checkpoint_every=args.checkpoint_every)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                failures = run_batch(engine, lines, fh, **batch_kwargs)
            log.info("wrote envelopes to %s", args.out)
        else:
            failures = run_batch(engine, lines, sys.stdout, **batch_kwargs)
    finally:
        engine.close()
    if failures:
        log.warning("%d request(s) failed", failures)
    return 1 if failures else 0


def _render_top(address: str, stats: Dict[str, Any]) -> str:
    """One ``repro top`` frame: header, per-op SLOs, caches, lanes."""
    rolling = stats.get("rolling", {})
    lines = [
        f"repro top — {address} — v{stats.get('version', '?')} — "
        f"up {stats.get('uptime_s', 0.0):.1f}s",
        f"requests {stats.get('requests_served', 0)}   "
        f"sessions {stats.get('sessions', 0)}/{stats.get('max_sessions', 0)}"
        f" (+{stats.get('edit_sessions', 0)} named)   "
        f"hits {stats.get('session_hits', 0)}  "
        f"misses {stats.get('session_misses', 0)}   "
        f"lanes {stats.get('lanes', 0)}",
    ]
    ops = rolling.get("ops", {})
    if ops:
        # The frames column only appears once sequential (framed) traffic
        # has been seen, so combinational-only servers keep the old table.
        framed = any("framed" in entry for entry in ops.values())
        lines.append("")
        header = (f"{'op':<12s} {'count':>7s} {'win':>5s} {'mean':>10s} "
                  f"{'p50':>10s} {'p95':>10s} {'p99':>10s} {'errs':>5s}")
        if framed:
            header += f" {'frames':>6s}"
        lines.append(header)
        for op, entry in ops.items():
            row = (
                f"{op:<12s} {entry['count']:>7d} {entry['window']:>5d} "
                f"{entry['mean_ms']:>8.2f}ms {entry['p50_ms']:>8.2f}ms "
                f"{entry['p95_ms']:>8.2f}ms {entry['p99_ms']:>8.2f}ms "
                f"{entry['errors']:>5d}")
            if framed:
                row += f" {entry.get('framed', 0):>6d}"
            lines.append(row)
    cache = rolling.get("cache", {})
    if cache:
        lines.append("")
        lines.append(f"{'cache tier':<12s} {'window':>7s} {'hit rate':>9s}")
        for tier, entry in cache.items():
            rate = ("-" if entry["hit_rate"] is None
                    else f"{entry['hit_rate'] * 100:.1f}%")
            lines.append(f"{tier:<12s} {entry['window']:>7d} {rate:>9s}")
    lanes = rolling.get("lanes", {})
    if lanes:
        lines.append("")
        lines.append(f"{'lane':<6s} {'requests':>9s} {'busy_s':>9s} "
                     f"{'util':>6s}")
        for lane, entry in lanes.items():
            lines.append(f"{lane:<6s} {entry['requests']:>9d} "
                         f"{entry['busy_s']:>9.3f} "
                         f"{entry['utilization'] * 100:>5.1f}%")
    admission = stats.get("admission")
    if admission:
        lines.append("")
        lines.append(
            f"admission    inflight {admission.get('inflight', 0)}"
            f"/{admission.get('limit', 0)}   "
            f"accepted {admission.get('accepted', 0)}  "
            f"rejected {admission.get('rejected', 0)}   "
            f"service ~{admission.get('service_ewma_ms', 0.0):.2f}ms")
    return "\n".join(lines)


def _top_frame(address: str, envelope: Dict[str, Any]):
    """One poll's display text plus an optional retry-after hint.

    An overloaded server answers the ``stats`` op with an overload
    envelope (``ok=False`` with an ``overload`` block and no ``stats``
    payload); render that as a frame and back off for ``retry_after_s``
    instead of crashing on the missing payload.
    """
    overload = envelope.get("overload")
    if not envelope.get("ok") and overload is not None:
        retry_after = overload.get("retry_after_s")
        text = (
            f"repro top — {address} — OVERLOADED\n"
            f"inflight {overload.get('inflight', '?')}"
            f"/{overload.get('limit', '?')}   "
            f"accepted {overload.get('accepted', 0)}  "
            f"rejected {overload.get('rejected', 0)}   "
            f"retry after {retry_after}s")
        return text, retry_after
    if not envelope.get("ok"):
        raise SystemExit(f"stats op failed: {envelope.get('error')}")
    return _render_top(address, envelope.get("stats") or {}), None


def _cmd_top(args: argparse.Namespace) -> int:
    import socket
    host, _, port = args.address.rpartition(":")
    if not host:
        raise SystemExit(
            f"invalid address {args.address!r}: expected HOST:PORT")
    try:
        port_num = int(port)
    except ValueError:
        raise SystemExit(
            f"invalid port {port!r}: expected an integer") from None
    try:
        sock = socket.create_connection((host, port_num), timeout=10)
    except OSError as exc:
        raise SystemExit(
            f"cannot connect to {args.address}: {exc}") from None
    stream = sock.makefile("rwb")
    polls = 0
    try:
        while True:
            stream.write(b'{"op": "stats"}\n')
            stream.flush()
            line = stream.readline()
            if not line:
                raise SystemExit("server closed the connection")
            envelope = json.loads(line)
            frame, retry_after = _top_frame(args.address, envelope)
            if polls:
                print()
            print(frame)
            polls += 1
            if args.iterations and polls >= args.iterations:
                break
            # An overload frame carries the server's own back-off hint;
            # honor it when it is longer than the polling interval.
            time.sleep(max(args.interval, retry_after or 0.0))
    except KeyboardInterrupt:
        pass
    finally:
        sock.close()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .engine import AnalysisEngine
    # Tracing is forced on for the whole run — that is the point of the
    # command — regardless of the --metrics-out/--trace-out obs flags.
    obs.reset()
    obs.enable()
    circuit = _load_circuit(args.circuit)
    eps_values = _eps_list(args.eps)
    options: Dict[str, Any] = {"seed": args.seed}
    if args.weights != "auto":
        options["weights"] = args.weights
    if args.weights_cache:
        options["weights_cache_dir"] = args.weights_cache
    engine = AnalysisEngine(max_sessions=4,
                            weights_cache_dir=args.weights_cache,
                            jobs=args.jobs)
    t0 = time.perf_counter()
    try:
        responses = engine.submit_many(
            [{"op": "analyze", "circuit": args.circuit, "eps": [eps],
              "id": i, "options": dict(options)}
             for i, eps in enumerate(eps_values)],
            jobs=args.jobs)
    finally:
        engine.close()
    wall = time.perf_counter() - t0
    failed = [r for r in responses if not r.ok]
    for response in failed:
        print(f"error: {response.error}", file=sys.stderr)
    print(f"# profile {circuit.name}: {len(eps_values)} eps point(s), "
          f"{wall * 1e3:.1f} ms wall, jobs={args.jobs}")
    print(f"{'phase':<44s} {'total':>10s} {'% wall':>7s}")
    tracer = obs.get_tracer()
    for name, total in sorted(tracer.phase_timings().items(),
                              key=lambda kv: -kv[1]):
        share = min(total / wall, 1.0) * 100 if wall > 0 else 0.0
        print(f"{name:<44s} {total * 1e3:>8.2f}ms {share:>6.1f}%")
    try:
        registry = obs_metrics.get_registry()
        rows = registry.value("compiled_pass.coefficient_rows",
                              circuit=circuit.name)
        groups = registry.value("compiled_pass.correlated_groups",
                                circuit=circuit.name)
    except KeyError:  # no correlated plan was compiled in this process
        pass
    else:
        print(f"correlated plan: {rows} coefficient rows in {groups} "
              f"batched groups")
    print()
    for response in responses:
        telemetry = response.telemetry or {}
        print(f"request {telemetry.get('request_id')}: "
              f"ladder={telemetry.get('ladder')} "
              f"kernel={telemetry.get('kernel_ms')}ms "
              f"total={telemetry.get('total_ms')}ms "
              f"lane={telemetry.get('lane')} "
              f"cache={telemetry.get('cache')}")
    out = args.trace_out or f"{Path(args.circuit).stem}.trace.json"
    tracer.write_chrome_trace(out)
    print(f"wrote Chrome trace to {out}")
    obs.disable()
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reliability analysis of logic circuits (DATE 2007 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="structured logging (-v info, -vv debug)")
        p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write a JSON-lines run report (enables "
                            "metrics + tracing)")
        p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write a Chrome chrome://tracing JSON timeline")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("circuit", help="netlist path or benchmark name")
        p.add_argument("--seed", type=int, default=0)
        add_obs(p)

    p = sub.add_parser("info", help="circuit structure statistics")
    add_common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("bench", help="list built-in benchmarks")
    p.add_argument("--large", action="store_true",
                   help="also list the large-netlist presets (10k-100k "
                        "gates; analyze them with --outputs/--weights sat)")
    add_obs(p)
    p.set_defaults(func=_cmd_bench)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for scalar eps sweeps "
                            "(only used when the sweep falls back to the "
                            "scalar path, e.g. with --compiled off; the "
                            "vectorized kernels are faster single-process)")

    def add_compiled(p: argparse.ArgumentParser) -> None:
        p.add_argument("--compiled", default="auto",
                       choices=["auto", "off"],
                       help="'auto' dispatches every mode (correlation "
                            "on or off) to the vectorized kernels; 'off' "
                            "forces the scalar reference path (the "
                            "parity oracle)")

    def add_weights_cache(p: argparse.ArgumentParser) -> None:
        p.add_argument("--weights-cache", default=None, metavar="DIR",
                       help="persistent weight-vector cache directory "
                            "(keyed by circuit structure + estimator "
                            "parameters)")

    p = sub.add_parser("analyze", help="single-pass reliability analysis")
    add_common(p)
    p.add_argument("--eps", default="0.05",
                   help="comma-separated gate failure probabilities")
    p.add_argument("--no-correlation", action="store_true",
                   help="disable Sec. 4.1 correlation coefficients")
    p.add_argument("--weights", default="auto",
                   choices=["auto", "bdd", "exhaustive", "sampled", "sat"])
    p.add_argument("--outputs", default=None, metavar="O1,O2,...",
                   help="restrict the analysis to these primary outputs: "
                        "only their union cone is weighted and lowered "
                        "(bit-identical results for the selected outputs; "
                        "the large-netlist path, see docs/scaling.md)")
    p.add_argument("--level-gap", type=int, default=None,
                   help="locality cap for correlation pairs")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of text")
    p.add_argument("--frames", type=int, default=None, metavar="K",
                   help="unroll a sequential netlist into K time frames "
                        "before analysis (required for circuits with "
                        "flip-flops; results gain a per-frame view)")
    p.add_argument("--steady-state", action="store_true",
                   help="iterate the sequential frame recurrence to its "
                        "fixed point instead of unrolling: reports "
                        "per-flop steady-state flip probabilities and "
                        "the converged per-output deltas")
    add_compiled(p)
    add_jobs(p)
    add_weights_cache(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("mc", help="Monte Carlo fault-injection baseline")
    add_common(p)
    p.add_argument("--eps", default="0.05")
    p.add_argument("--patterns", type=int, default=1 << 16)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("closed", help="observability closed-form analysis")
    add_common(p)
    p.add_argument("--eps", default="0.05")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_closed)

    p = sub.add_parser("curve", help="delta(eps) sweep: single-pass vs MC")
    add_common(p)
    p.add_argument("--output", default=None)
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--max-eps", type=float, default=0.5)
    p.add_argument("--patterns", type=int, default=1 << 14)
    p.add_argument("--level-gap", type=int, default=8)
    add_compiled(p)
    add_jobs(p)
    add_weights_cache(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("testability",
                       help="stuck-at fault simulation profile")
    add_common(p)
    p.add_argument("--patterns", type=int, default=1 << 13)
    p.add_argument("--top", type=int, default=10,
                   help="how many hardest faults to list")
    p.add_argument("--exhaustive-limit", type=int, default=16,
                   help="use exhaustive patterns up to this input count")
    p.set_defaults(func=_cmd_testability)

    p = sub.add_parser("stratified",
                       help="rare-event (small-eps) reliability estimate")
    add_common(p)
    p.add_argument("--eps", default="1e-6")
    p.add_argument("--max-failures", type=int, default=3)
    p.add_argument("--patterns", type=int, default=1 << 12)
    p.add_argument("--samples", type=int, default=200,
                   help="failure-set samples per stratum")
    p.set_defaults(func=_cmd_stratified)

    p = sub.add_parser("harden",
                       help="budgeted reliability-driven hardening")
    add_common(p)
    p.add_argument("--eps-value", type=float, default=0.01,
                   help="baseline per-gate failure probability")
    p.add_argument("--budget", type=float, default=10.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_harden)

    p = sub.add_parser("compare",
                       help="run every estimator side by side")
    add_common(p)
    p.add_argument("--eps", default="0.05")
    p.add_argument("--patterns", type=int, default=1 << 16)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="full markdown reliability report")
    add_common(p)
    p.add_argument("--out", default=None, help="write to file")
    p.add_argument("--patterns", type=int, default=1 << 14)
    p.add_argument("--no-testability", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of markdown")
    add_weights_cache(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("convert", help="convert netlist formats")
    add_common(p)
    p.add_argument("out", help="output path (.bench / .blif / .v)")
    p.set_defaults(func=_cmd_convert)

    def add_engine(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-sessions", type=int, default=8, metavar="N",
                       help="hot circuit sessions kept in the engine's "
                            "LRU registry")
        p.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="worker-process lanes for fanning independent "
                            "circuits out (0 = in-process)")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="default per-request timeout in seconds; on "
                            "expiry the engine falls back down the "
                            "compiled → scalar → closed-form ladder")
        p.add_argument("--state-dir", default=None, metavar="DIR",
                       help="durable warm-state directory: edit sessions "
                            "are snapshotted here and restored on start; "
                            "doubles as the weight cache when "
                            "--weights-cache is unset")
        add_weights_cache(p)
        add_obs(p)

    p = sub.add_parser("serve",
                       help="persistent engine serving JSON requests")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="listen on TCP instead of stdio (e.g. "
                        "127.0.0.1:7777; port 0 picks a free port)")
    p.add_argument("--threaded", action="store_true",
                   help="use the legacy thread-per-connection TCP server "
                        "instead of the asyncio front-end (no admission "
                        "control, no cross-client micro-batching)")
    p.add_argument("--max-inflight", type=int, default=256, metavar="N",
                   help="admission limit for the asyncio front-end: "
                        "requests in flight beyond this are answered "
                        "with an overload envelope carrying a "
                        "retry_after_s hint")
    p.add_argument("--snapshot-interval", type=float, default=300.0,
                   metavar="S",
                   help="seconds between periodic engine-state snapshots "
                        "when --state-dir is set (asyncio front-end "
                        "only; a final snapshot is always taken on "
                        "shutdown)")
    add_engine(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("batch",
                       help="run a requests.jsonl through the engine")
    p.add_argument("requests", help="path to a line-delimited JSON "
                                    "request file")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write envelopes here instead of stdout")
    p.add_argument("--resume", action="store_true",
                   help="with --state-dir: replay the journal of a "
                        "previously interrupted run of the same request "
                        "file and execute only the remainder")
    p.add_argument("--checkpoint-every", type=int, default=32, metavar="N",
                   help="with --state-dir: journal envelopes and snapshot "
                        "engine state after every N requests")
    add_engine(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("top",
                       help="live stats table from a serving engine")
    p.add_argument("address", metavar="HOST:PORT",
                   help="TCP address of a running `repro serve --tcp` "
                        "engine")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between stats polls")
    p.add_argument("--iterations", type=int, default=0, metavar="N",
                   help="stop after N polls (0 = run until interrupted)")
    add_obs(p)
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("profile",
                       help="run one traced analysis: phase breakdown "
                            "table + spliced Chrome trace")
    add_common(p)
    p.add_argument("--eps", default="0.01,0.05,0.1",
                   help="comma-separated eps points to profile")
    p.add_argument("--weights", default="auto",
                   choices=["auto", "bdd", "exhaustive", "sampled", "sat"])
    p.add_argument("--jobs", type=int, default=0, metavar="N",
                   help="worker-process lanes to fan the profiled "
                        "requests across (0 = in-process); worker spans "
                        "are spliced into the parent trace")
    add_weights_cache(p)
    p.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    session = _ObsSession(
        command=args.command,
        metrics_out=getattr(args, "metrics_out", None),
        trace_out=getattr(args, "trace_out", None),
        verbose=getattr(args, "verbose", 0))
    args.obs_session = session
    try:
        with trace_span(f"cli.{args.command}"):
            return args.func(args)
    finally:
        session.finish()


if __name__ == "__main__":
    sys.exit(main())
