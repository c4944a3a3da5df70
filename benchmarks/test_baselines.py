"""Baseline comparison: the accuracy claims of the paper's Sec. 2.

Compares, against Monte Carlo ground truth at one eps:

* the single-pass analysis (this paper);
* the observability closed form (this paper, Sec. 3);
* the naive compositional scalar-error rules (prior analytical work the
  paper says "suffer significant penalties in accuracy" on multi-level
  logic);

and reproduces von Neumann's NAND-multiplexing noise threshold from the
executive-organ recurrence (the paper's reference [3]).
"""

import math

import numpy as np
import pytest

from repro.circuits import get_benchmark
from repro.reliability import (
    ObservabilityModel,
    SinglePassAnalyzer,
    compositional_delta,
    von_neumann_threshold,
)
from repro.sim import monte_carlo_reliability

from conftest import LEVEL_GAP, MC_PATTERNS, relative_errors, write_result

BENCHES = ("x2", "cu", "b9")
EPS = 0.05


def _accuracy_table():
    rows = []
    for name in BENCHES:
        circuit = get_benchmark(name)
        mc = monte_carlo_reliability(circuit, EPS, n_patterns=MC_PATTERNS,
                                     seed=4)
        sp = SinglePassAnalyzer(
            circuit, max_correlation_level_gap=LEVEL_GAP,
            weight_method="sampled", n_patterns=1 << 15).run(EPS)
        comp = compositional_delta(circuit, EPS)
        closed = {}
        for out in circuit.outputs:
            model = ObservabilityModel(circuit, output=out,
                                       method="sampled",
                                       n_patterns=1 << 13)
            closed[out] = model.delta(EPS)
        rows.append((
            name,
            float(np.mean(relative_errors(sp.per_output, mc.per_output))),
            float(np.mean(relative_errors(closed, mc.per_output))),
            float(np.mean(relative_errors(comp, mc.per_output))),
        ))
    return rows


def test_sec2_baseline_accuracy(benchmark):
    rows = benchmark.pedantic(_accuracy_table, rounds=1, iterations=1)
    lines = [f"Sec. 2 baseline comparison — avg % error vs MC at eps={EPS}",
             f"{'bench':8s} {'single-pass':>12s} {'closed-form':>12s} "
             f"{'compositional':>14s}"]
    for name, sp, cf, comp in rows:
        lines.append(f"{name:8s} {sp:12.2f} {cf:12.2f} {comp:14.2f}")
    write_result("baselines.txt", "\n".join(lines))
    # The paper's ordering: single-pass best; compositional rules suffer a
    # significant penalty on every multi-level benchmark.
    for name, sp, cf, comp in rows:
        assert comp > 3 * sp, (name, sp, comp)


def test_von_neumann_threshold(benchmark):
    numeric = benchmark.pedantic(von_neumann_threshold,
                                 kwargs={"tolerance": 1e-12},
                                 rounds=1, iterations=1)
    analytic = (3.0 - math.sqrt(7.0)) / 4.0
    write_result(
        "von_neumann.txt",
        "von Neumann 2-input NAND multiplexing threshold\n"
        f"numeric (bisection on fixed-point stability):  {numeric:.6f}\n"
        f"analytic (3 - sqrt(7)) / 4:                    {analytic:.6f}\n")
    assert numeric == pytest.approx(analytic, abs=1e-9)
