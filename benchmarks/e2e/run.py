"""End-to-end benchmark of the default paths: run it, or compare runs.

Run one or more workloads (default: all four) for one seed::

    python benchmarks/e2e/run.py --seed 0
    python benchmarks/e2e/run.py --workload warm_serve --seed 3
    python benchmarks/e2e/run.py --seed 0 --trace      # per-layer run

Each run prints every metric with unit, median, IQR and sample count,
writes ``results/runs/<workload>-seed<N>[-trace].json``, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
``--trace``.

Compare two sets of result files (or directories of them)::

    python benchmarks/e2e/run.py compare BASE... -- NEW...

which exits non-zero when any (workload, metric) pair is ``worse`` or a
workload's failed fraction rose.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import workloads  # noqa: E402
from workloads import SPEC  # noqa: E402


def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
                 "is missing (run from a full checkout)")


def _fmt(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_run(name: str, doc: Dict[str, Any]) -> None:
    kind = "traced" if doc["trace"] else "untraced"
    print(f"== {name}  seed={doc['seed']}  {kind}, {doc['seconds']} s")
    print(f"  {'metric':<42s} {'unit':<9s} {'value':>11s} {'median':>11s} "
          f"{'IQR':>10s} {'n':>5s}")
    for metric, entry in doc["metrics"].items():
        print(f"  {metric:<42s} {entry['unit']:<9s} "
              f"{_fmt(entry['value']):>11s} "
              f"{_fmt(entry.get('median', '')):>11s} "
              f"{_fmt(entry.get('iqr', '')):>10s} "
              f"{_fmt(entry.get('n', '')):>5s}")
    for key, entry in doc["detail"].items():
        if isinstance(entry, dict) and "median" in entry:
            tail = entry["tail"]
            tail_text = (f"  p{tail['pct']}={_fmt(tail['value'])}"
                         if tail else "")
            print(f"  detail {key:<35s} {entry['unit']:<9s} "
                  f"median={_fmt(entry['median'])}  "
                  f"IQR={_fmt(entry['iqr'])}  n={entry['n']}{tail_text}")
    if doc["trace"]:
        _print_layers(doc)
    print(f"  correct: {doc['attempted'] - doc['failed']}/"
          f"{doc['attempted']} operations")
    for problem in doc["mismatches"][:20]:
        print(f"  MISMATCH {problem}")


def _print_layers(doc: Dict[str, Any]) -> None:
    print("  self time by span name (s, traced children incl. set-up):")
    for name, sec in sorted(doc["self_time_s"].items(),
                            key=lambda kv: -kv[1])[:25]:
        print(f"    {name:<44s} {sec:>10.4f}")
    split = doc["detail"].get("cold_split_ms")
    if split:
        print("  cold invocation split (mean ms; bdd_wasted is part of "
              "weights; untraced = the paired CLI runs):")
        for circuit, s in split.items():
            parts = ", ".join(f"{k}={v:.1f}" for k, v in s["layers"].items()
                              if v)
            print(f"    {circuit}: layers sum {s['layers_sum']:.1f}  "
                  f"untraced {s['untraced_mean']:.1f} "
                  f"({s['layers_sum'] / s['untraced_mean'] - 1:+.1%})\n"
                  f"      {parts}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this process; print its table and JSON line."""
    env = report.fingerprint(ROOT)
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, seconds)
    try:
        out = workload.measure(trace)
    except workloads.BenchError as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    finally:
        workloads.clean_tmp()
    doc = {"schema": report.SCHEMA_VERSION, "workload": name, "seed": seed,
           "seconds": seconds, "trace": trace, "env": env,
           "run_wall_s": time.perf_counter() - t0,
           "correct": out.tally.failed == 0,
           "attempted": out.tally.attempted, "failed": out.tally.failed,
           "mismatches": out.tally.mismatches[:50],
           "metrics": out.metrics, "detail": out.detail,
           "self_time_s": out.self_table}
    stem = f"{name}-seed{seed}" + ("-trace" if trace else "")
    report.write(workloads.RESULTS / "runs" / f"{stem}.json", doc)
    if trace:
        report.write(workloads.RESULTS / "traces" / f"{name}.trace.json",
                     {"traceEvents": out.chrome, "displayTimeUnit": "ms"})
    _print_run(name, doc)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": out.metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted}}))
    return 0


def run_many(args: argparse.Namespace) -> int:
    """One fresh harness process per workload, then a combined JSON line.

    A child's peak RSS as ``wait4`` reports it is never below the
    harness's own RSS when it forked, so a harness that grew while
    checking one workload's answers must not fork the next one's.
    """
    final: Dict[str, Any] = {"attempted": 0, "failed": 0, "metrics": {}}
    for name in args.workload:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace:
            command.append("--trace")
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                stdout, _ = proc.communicate()
            except BaseException:
                proc.terminate()  # lets that harness stop its own children
                raise
        print(stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(stdout.strip().splitlines()[-1])
        final["attempted"] += last["attempted"]
        final["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            final["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps({"correct": final["failed"] == 0, **final}))
    return 0


def run_compare(argv: List[str]) -> int:
    if "--" not in argv:
        sys.exit("usage: run.py compare BASE... -- NEW...")
    split = argv.index("--")
    base = report.load_runs(argv[:split])
    new = report.load_runs(argv[split + 1:])
    if not base or not new:
        sys.exit("error: compare needs untraced result files on both sides")
    try:
        rows, failing = report.compare(base, new, workloads.BOUNDS)
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    print(f"{'workload':<12s} {'metric':<20s} {'base':>11s} {'new':>11s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s} {'runs':>6s}  "
          f"verdict")
    for row in rows:
        change = ((row["new"] - row["base"]) / row["base"]
                  if row["base"] else 0.0)
        print(f"{row['workload']:<12s} {row['metric']:<20s} "
              f"{row['base']:>11.5g} {row['new']:>11.5g} {change:>+8.1%} "
              f"{row['spread']:>7.1%} {row['bound']:>6.0%} "
              f"{row['runs'][0]:>2d}/{row['runs'][1]:<3d}  {row['verdict']}")
    return 1 if failing else 0


def _terminate(signum, frame) -> None:
    # Unwind through the workloads' ``with Child(...)`` blocks, which
    # kill and reap every child still running.
    sys.exit(128 + signum)


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        return run_compare(argv[1:])
    signal.signal(signal.SIGTERM, _terminate)
    # A shell that starts this process in the background may leave SIGINT
    # ignored, and children inherit an ignored signal: then ``repro
    # serve`` would never see the SIGINT that stops it.  A handler of our
    # own is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the default paths.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", "--workloads", nargs="+",
                        choices=list(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS),
                        help="workloads to run (default: all)")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    # "--trace" alone or "--trace 1": the per-layer run.
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run (traced children)")
    args = parser.parse_args(argv)
    _check_checkout()
    if len(args.workload) > 1:
        return run_many(args)
    return run_one(args.workload[0], args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
