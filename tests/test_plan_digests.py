"""Bit-identity of the compiled correlated plan against a recorded fixture.

``tests/data/correlated_plan_digests.json`` records, for catalog circuits
and seeded random netlists under three plan configurations, the plan's
canonical pair keys (count + sha256), its batched-op group count, and
sha256 digests of the raw bytes of 7-point ``run_sweep`` results under
symmetric, asymmetric and per-gate eps.  Any change to the plan compiler
must reproduce every entry exactly: same pair closure, same grouping, same
floats.  Row *numbering* is free to change — nothing here depends on it.

Regenerate (only when an output change is intended and documented)::

    PYTHONPATH=src python tests/test_plan_digests.py
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.circuits import get_benchmark, random_circuit
from repro.probability.error_propagation import ErrorProbability
from repro.probability.weights import compute_weights
from repro.reliability import CompiledCorrelatedPass

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "correlated_plan_digests.json")

CATALOG = ["c17", "fig1a", "fig2", "cu", "x2", "b9", "c432", "c499", "c880"]
#: (seed, inputs, gates, outputs) of the random netlists: 30..200 gates.
RANDOM = [(seed, 8 + seed, 30 + (170 * seed) // 9, 2 + seed % 4)
          for seed in range(10)]
CONFIGS = ["default", "gap3", "input_errors"]

EPS = [0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.35]
EPS10 = [0.3, 0.0, 0.02, 0.05, 0.15, 0.001, 0.4]


def _circuit(name):
    if name.startswith("rand"):
        seed, n_in, n_gates, n_out = RANDOM[int(name[4:])]
        return random_circuit(n_inputs=n_in, n_gates=n_gates,
                              n_outputs=n_out, seed=seed, name=name)
    return get_benchmark(name)


def _plan_kwargs(circuit, config):
    if config == "gap3":
        return {"max_level_gap": 3}
    if config == "input_errors":
        errs = {pi: ErrorProbability(p01=0.01 * (1 + i % 3), p10=0.02)
                for i, pi in enumerate(circuit.inputs[::2])}
        if len(circuit.inputs) > 1:
            errs[circuit.inputs[1]] = ErrorProbability(p01=0.0, p10=0.0)
        return {"input_errors": errs}
    return {}


def _sha(array) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def digest(name, config):
    """The fixture entry of one (circuit, config) plan."""
    circuit = _circuit(name)
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 10, seed=0)
    plan = CompiledCorrelatedPass(circuit, weights,
                                  **_plan_kwargs(circuit, config))
    gates = circuit.topological_gates()
    per_gate = [{g: 0.001 * ((7 * i + 3 * j) % 50)
                 for i, g in enumerate(gates)} for j in range(len(EPS))]
    sym = plan.run_sweep(EPS)
    asym = plan.run_sweep(EPS, EPS10)
    pg = plan.run_sweep(per_gate)
    keys = json.dumps([list(k) for k in plan.pair_keys]).encode()
    return {
        "pair_keys": {"count": len(plan.pair_keys),
                      "sha256": hashlib.sha256(keys).hexdigest()},
        "num_corr_groups": plan.num_corr_groups,
        "deltas": {"symmetric": _sha(sym.per_output),
                   "asymmetric": _sha(asym.per_output),
                   "per_gate": _sha(pg.per_output)},
        "coefficients": _sha(sym.correlation_coefficients),
    }


CASES = [(name, config)
         for name in CATALOG + [f"rand{s}" for s, *_ in RANDOM]
         for config in CONFIGS]


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,config", CASES)
def test_plan_matches_recorded_digest(recorded, name, config):
    assert digest(name, config) == recorded[f"{name}/{config}"]


if __name__ == "__main__":
    data = {f"{name}/{config}": digest(name, config)
            for name, config in CASES}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} entries to {FIXTURE}")
