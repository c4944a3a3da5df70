"""Multi-circuit tensor kernel vs sequential per-circuit compiled calls.

The workload the engine's cross-session batching answers: a mixed
16-circuit catalog batch, 32 eps points per circuit.  The sequential
arm runs one :meth:`CompiledSinglePass.run_sweep` per circuit (what the
engine did before cross-session batching existed); the tensor arm runs
the same plans through one merged :class:`TensorBatch` pass.  Plans and
the merged batch are built outside the timed regions — plan lowering is
once-per-session and the engine memoizes the batch per composition.

Acceptance floor: the tensor pass must beat the sequential loop by
>= 3x, with per-circuit parity <= 1e-10 against the solo kernels.
Timings land in ``results/multicircuit_perf.txt`` (human-readable) and
``results/BENCH_multicircuit.json`` (machine-readable trajectory).
"""

import time

import numpy as np
import pytest

from repro.circuits import get_benchmark, list_benchmarks
from repro.probability.weights import compute_weights
from repro.reliability.compiled_pass import CompiledSinglePass
from repro.reliability.tensor_pass import TensorBatch

from conftest import record_multicircuit, write_result

#: The 16-circuit mixed batch: every catalog circuit that isn't one of
#: the two giant stand-ins (whose solo sweeps dwarf the dispatch
#: overhead the tensor path removes — they are served fine solo).
CIRCUITS = tuple(n for n in list_benchmarks()
                 if n not in ("c6288", "i10"))[:16]

N_POINTS = 32
EPS = [float(e) for e in np.linspace(0.001, 0.1, N_POINTS)]

#: Timing repetitions; the minimum is reported (steady-state cost).
REPEATS = 5

MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def plans():
    assert len(CIRCUITS) == 16
    built = []
    for name in CIRCUITS:
        circuit = get_benchmark(name)
        weights = compute_weights(circuit, method="sampled",
                                  n_patterns=1 << 10, seed=0)
        built.append(CompiledSinglePass(circuit, weights))
    return built


@pytest.fixture(scope="module")
def batch(plans):
    return TensorBatch(plans)


def _time(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_tensor_batch_speedup(plans, batch):
    solo_sweeps = [plan.run_sweep(EPS) for plan in plans]  # warm-up + ref

    sequential_s = _time(lambda: [plan.run_sweep(EPS) for plan in plans])
    tensor_s = _time(lambda: batch.run_sweep([EPS] * len(plans)))
    speedup = sequential_s / tensor_s

    # Parity: every circuit's tensor results match its solo kernel.
    sweeps = batch.run_sweep([EPS] * len(plans))
    worst = 0.0
    for solo, sweep in zip(solo_sweeps, sweeps):
        worst = max(worst,
                    float(np.abs(sweep.p01 - solo.p01).max()),
                    float(np.abs(sweep.per_output - solo.per_output).max()))
    assert worst <= 1e-10

    record_multicircuit("sequential", len(plans), N_POINTS, sequential_s)
    record_multicircuit("tensor", len(plans), N_POINTS, tensor_s,
                        speedup_vs_sequential=speedup)
    lines = [
        "multi-circuit tensor kernel "
        f"({len(plans)} circuits x {N_POINTS} eps points)",
        f"{'variant':<12s} {'best_s':>10s} {'speedup':>9s}",
        f"{'sequential':<12s} {sequential_s:>10.4f} {'1.0x':>9s}",
        f"{'tensor':<12s} {tensor_s:>10.4f} {speedup:>8.2f}x",
        f"merged groups: {batch.num_groups} "
        f"(vs {batch.unmerged_groups} sequential dispatches)",
        f"worst parity diff: {worst:.2e}",
    ]
    write_result("multicircuit_perf.txt", "\n".join(lines) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"tensor batch only {speedup:.2f}x over sequential per-circuit "
        f"kernels (floor {MIN_SPEEDUP}x)")
