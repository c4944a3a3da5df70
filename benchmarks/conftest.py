"""Shared infrastructure for the paper-reproduction benchmark harness.

Each ``test_*`` module regenerates one table or figure from the paper
(see DESIGN.md, experiment index).  Results are printed and also written
to ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can cite them.

Environment knobs:

* ``REPRO_BENCH_FULL=1`` — run closer to paper-scale sample sizes
  (more Monte Carlo patterns, more eps points, more random-eps runs).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable single-pass perf trajectory (see test_compiled_perf.py).
BENCH_SINGLEPASS = RESULTS_DIR / "BENCH_singlepass.json"

#: Machine-readable engine warm/cold trajectory (see test_engine_perf.py).
BENCH_ENGINE = RESULTS_DIR / "BENCH_engine.json"

#: Machine-readable incremental-vs-from-scratch trajectory
#: (see test_incremental_perf.py).
BENCH_INCREMENTAL = RESULTS_DIR / "BENCH_incremental.json"

#: Machine-readable multi-circuit tensor-batch trajectory
#: (see test_multicircuit_perf.py).
BENCH_MULTICIRCUIT = RESULTS_DIR / "BENCH_multicircuit.json"

#: Machine-readable serve-tier concurrency trajectory
#: (see test_serve_concurrency.py).
BENCH_SERVE = RESULTS_DIR / "BENCH_serve.json"

#: Machine-readable sequential (k-frame unrolled) sweep trajectory
#: (see test_sequential_perf.py).
BENCH_SEQUENTIAL = RESULTS_DIR / "BENCH_sequential.json"

#: Machine-readable large-netlist lazy-cone trajectory
#: (see test_scale_perf.py).
BENCH_SCALE = RESULTS_DIR / "BENCH_scale.json"

#: Aggregated roll-up of every BENCH_*.json written by this session
#: (consumed by the CI benchmarks artifact job).
BENCH_SUMMARY = RESULTS_DIR / "BENCH_summary.json"

_singlepass_records = []
_engine_records = []
_incremental_records = []
_multicircuit_records = []
_serve_records = []
_sequential_records = []
_scale_records = []


def record_singlepass(circuit: str, variant: str, mean_s: float,
                      speedup_vs_scalar=None) -> None:
    """Queue one timing row for ``BENCH_singlepass.json``.

    Rows follow the fixed schema
    ``{circuit, variant, mean_s, speedup_vs_scalar}`` so successive runs
    can be diffed/plotted as a perf trajectory; ``speedup_vs_scalar`` is
    null for the scalar baselines themselves.
    """
    _singlepass_records.append({
        "circuit": str(circuit),
        "variant": str(variant),
        "mean_s": float(mean_s),
        "speedup_vs_scalar": (None if speedup_vs_scalar is None
                              else float(speedup_vs_scalar)),
    })


def record_engine(circuit: str, phase: str, mean_s: float,
                  speedup_vs_cold=None) -> None:
    """Queue one timing row for ``BENCH_engine.json``.

    Rows follow the fixed schema
    ``{circuit, phase, mean_s, speedup_vs_cold}``; ``speedup_vs_cold``
    is null for the cold baseline row itself.
    """
    _engine_records.append({
        "circuit": str(circuit),
        "phase": str(phase),
        "mean_s": float(mean_s),
        "speedup_vs_cold": (None if speedup_vs_cold is None
                            else float(speedup_vs_cold)),
    })


def record_incremental(circuit: str, loop: str, mean_s: float,
                       speedup_vs_scratch=None) -> None:
    """Queue one timing row for ``BENCH_incremental.json``.

    Rows follow the fixed schema
    ``{circuit, loop, mean_s, speedup_vs_scratch}``; ``loop`` names the
    measured arm (e.g. ``"from_scratch"`` / ``"incremental"``) and
    ``speedup_vs_scratch`` is null for the from-scratch baseline itself.
    """
    _incremental_records.append({
        "circuit": str(circuit),
        "loop": str(loop),
        "mean_s": float(mean_s),
        "speedup_vs_scratch": (None if speedup_vs_scratch is None
                               else float(speedup_vs_scratch)),
    })


def record_multicircuit(variant: str, circuits: int, points: int,
                        mean_s: float, speedup_vs_sequential=None) -> None:
    """Queue one timing row for ``BENCH_multicircuit.json``.

    Rows follow the fixed schema
    ``{variant, circuits, points, mean_s, speedup_vs_sequential}``;
    ``variant`` names the measured arm (``"sequential"`` /
    ``"tensor"``) and ``speedup_vs_sequential`` is null for the
    sequential baseline itself.
    """
    _multicircuit_records.append({
        "variant": str(variant),
        "circuits": int(circuits),
        "points": int(points),
        "mean_s": float(mean_s),
        "speedup_vs_sequential": (None if speedup_vs_sequential is None
                                  else float(speedup_vs_sequential)),
    })


def record_serve(mode: str, clients: int, requests: int, wall_s: float,
                 rps: float, speedup_vs_serial=None) -> None:
    """Queue one timing row for ``BENCH_serve.json``.

    Rows follow the fixed schema
    ``{mode, clients, requests, wall_s, rps, speedup_vs_serial}``;
    ``mode`` names the measured arm (``"serial"`` — one closed-loop
    client — or ``"async"``) and ``speedup_vs_serial`` is null for the
    serial baseline itself.
    """
    _serve_records.append({
        "mode": str(mode),
        "clients": int(clients),
        "requests": int(requests),
        "wall_s": float(wall_s),
        "rps": float(rps),
        "speedup_vs_serial": (None if speedup_vs_serial is None
                              else float(speedup_vs_serial)),
    })


def record_sequential(circuit: str, frames: int, variant: str, points: int,
                      mean_s: float, speedup_vs_scalar=None) -> None:
    """Queue one timing row for ``BENCH_sequential.json``.

    Rows follow the fixed schema
    ``{circuit, frames, variant, points, mean_s, speedup_vs_scalar}``;
    ``variant`` names the measured arm (``"scalar"`` / ``"compiled"``)
    and ``speedup_vs_scalar`` is null for the scalar baseline itself.
    """
    _sequential_records.append({
        "circuit": str(circuit),
        "frames": int(frames),
        "variant": str(variant),
        "points": int(points),
        "mean_s": float(mean_s),
        "speedup_vs_scalar": (None if speedup_vs_scalar is None
                              else float(speedup_vs_scalar)),
    })


def record_scale(circuit: str, variant: str, gates: int, cone_gates: int,
                 mean_s: float, speedup_vs_full=None) -> None:
    """Queue one timing row for ``BENCH_scale.json``.

    Rows follow the fixed schema
    ``{circuit, variant, gates, cone_gates, mean_s, speedup_vs_full}``;
    ``variant`` names the measured arm (``"full"`` / ``"lazy_cone"`` /
    ``"sat_cone"``) and ``speedup_vs_full`` is null for the full-build
    baseline itself.
    """
    _scale_records.append({
        "circuit": str(circuit),
        "variant": str(variant),
        "gates": int(gates),
        "cone_gates": int(cone_gates),
        "mean_s": float(mean_s),
        "speedup_vs_full": (None if speedup_vs_full is None
                            else float(speedup_vs_full)),
    })


def pytest_sessionfinish(session, exitstatus):
    """Flush queued timings once the benchmark session ends."""
    queues = [
        (BENCH_SINGLEPASS, _singlepass_records),
        (BENCH_ENGINE, _engine_records),
        (BENCH_INCREMENTAL, _incremental_records),
        (BENCH_MULTICIRCUIT, _multicircuit_records),
        (BENCH_SERVE, _serve_records),
        (BENCH_SEQUENTIAL, _sequential_records),
        (BENCH_SCALE, _scale_records),
    ]
    for path, records in queues:
        if records:
            RESULTS_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(records, indent=2) + "\n")
    # Roll every BENCH_*.json currently on disk (this run's or an earlier
    # one's) into one summary document for the CI artifact upload.
    summary = {}
    if RESULTS_DIR.is_dir():
        for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
            if path.name == BENCH_SUMMARY.name:
                continue
            try:
                summary[path.stem] = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
    if summary:
        BENCH_SUMMARY.write_text(json.dumps(summary, indent=2) + "\n")

#: Scale factor: full mode uses paper-like sampling, default is CI-sized.
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Monte Carlo pattern budget per eps point.
MC_PATTERNS = 1 << (18 if FULL else 14)

#: Level-gap cap for the correlation engine on the big stand-ins.
LEVEL_GAP = None if FULL else 6


def write_result(name: str, text: str) -> None:
    """Persist one experiment's regenerated table and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text)
    print()
    print(text)


def relative_errors(per_output_a, per_output_b, floor=1e-9):
    """Per-output percentage differences |a-b|/max(b, floor) * 100."""
    return [abs(per_output_a[o] - per_output_b[o])
            / max(per_output_b[o], floor) * 100.0
            for o in per_output_b]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2007)
