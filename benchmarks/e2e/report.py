"""Result files, summary statistics and the ``compare`` verdict rule.

A result file records one run of one workload: the environment it ran
in, the seed, the correctness tally, and for every metric its raw
samples, median, IQR, sample count and the highest percentile with at
least ten samples beyond it.  ``compare`` reads two sets of such files
and judges every (workload, metric) pair against the bounds declared in
``BENCHMARK.json`` and, for each workload's own metrics, in
``workloads.py``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 2


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * n))
    return {"pct": pct, "value": ordered[rank - 1]}


def summarize(samples: Sequence[float], unit: str, better: str,
              value: Optional[float] = None) -> Dict[str, Any]:
    """One metric entry of a result file.

    ``value`` is what the run reports for the metric; it defaults to the
    median of the samples (peak RSS passes their maximum instead).
    """
    samples = [float(s) for s in samples]
    q1, med, q3 = quartiles(samples)
    return {"value": med if value is None else float(value), "unit": unit,
            "better": better, "median": med, "iqr": q3 - q1,
            "n": len(samples), "tail": tail(samples), "samples": samples}


def fingerprint(root: Path) -> Dict[str, Any]:
    """Where a run happened: code version and machine."""
    sha, dirty = None, None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(root), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha, dirty = None, None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "loadavg": list(os.getloadavg())}


def write(path: Path, doc: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """Judge one (workload, metric) pair from per-run values.

    A change beyond ``bound`` (a share of the base median) is ``worse``
    or ``better``; within it, ``unchanged``.  When either side's
    run-to-run spread is wider than the bound the medians cannot be
    trusted, so the pair is ``unresolved`` unless every new run beats
    every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_med = statistics.median(base)
    worse_by = sign * (statistics.median(new) - base_med) / abs(base_med)
    if max(spread(base), spread(new)) > bound:
        beats_all = all(sign * (n - b) < 0 for n in new for b in base)
        return "better" if beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def load_runs(paths: Iterable[str]) -> List[Dict[str, Any]]:
    """Untraced result files named directly or found in directories."""
    docs = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
        for file in files:
            doc = json.loads(file.read_text())
            if doc.get("schema") == SCHEMA_VERSION and not doc["trace"]:
                docs.append(doc)
    return docs


def compare(base_docs: List[Dict[str, Any]], new_docs: List[Dict[str, Any]],
            bounds: Dict[str, float]) -> Tuple[List[Dict[str, Any]], bool]:
    """Verdict rows for every (workload, metric) pair plus a failure flag.

    Every metric named in ``bounds`` that a workload reports is judged.
    The flag is set when any pair is ``worse`` or when a workload's
    failed fraction rose.  Runs of different lengths are not comparable:
    that raises ``ValueError``.
    """
    lengths = {d["seconds"] for d in base_docs + new_docs}
    if len(lengths) > 1:
        raise ValueError(f"runs measured for different lengths "
                         f"{sorted(lengths)} s cannot be compared")
    rows = []
    failing = False
    workloads = sorted({d["workload"] for d in base_docs}
                       & {d["workload"] for d in new_docs})
    for workload in workloads:
        base = [d for d in base_docs if d["workload"] == workload]
        new = [d for d in new_docs if d["workload"] == workload]
        for metric, bound in bounds.items():
            if metric not in base[0]["metrics"]:
                continue
            b = [d["metrics"][metric]["value"] for d in base]
            n = [d["metrics"][metric]["value"] for d in new]
            better = base[0]["metrics"][metric]["better"]
            v = verdict(b, n, better, bound)
            failing |= v == "worse"
            rows.append({"workload": workload, "metric": metric,
                         "base": statistics.median(b),
                         "new": statistics.median(n),
                         "spread": max(spread(b), spread(n)),
                         "bound": bound, "verdict": v,
                         "runs": (len(b), len(n))})
        b_ff, n_ff = failed_frac(base), failed_frac(new)
        worse_ff = n_ff > b_ff
        failing |= worse_ff
        rows.append({"workload": workload, "metric": "failed_frac",
                     "base": b_ff, "new": n_ff, "spread": 0.0, "bound": 0.0,
                     "verdict": "worse" if worse_ff else (
                         "better" if n_ff < b_ff else "unchanged"),
                     "runs": (len(base), len(new))})
    return rows, failing


def failed_frac(docs: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(d["attempted"] for d in docs)
    return sum(d["failed"] for d in docs) / attempted if attempted else 0.0
