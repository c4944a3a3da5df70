"""Bit-identity of the plain (independence) kernel against a recorded fixture.

``tests/data/plain_kernel_digests.json`` records, for catalog circuits,
seeded random netlists and seeded wide-gate netlists, sha256 digests of
the raw bytes of ``per_output``, ``p01`` and ``p10`` from 2- and 5-point
sweeps under symmetric, asymmetric and per-gate eps, in float64 and
float32.  Both the solo :class:`CompiledSinglePass` sweeps and a
:class:`TensorBatch` over every netlist at once (widths alternating per
circuit, so the batch is ragged) must reproduce every entry exactly:
any change to the plain kernel, its lowering or the tensor merge.

Width-1 sweeps are not in the fixture: they must equal column 0 of the
duplicated width-2 sweep ``[e, e]``, solo and batched alike, so a plain
column never depends on the width of the sweep that computed it.

Regenerate (only when an output change is intended and documented)::

    PYTHONPATH=src python tests/test_plain_kernel_digests.py
"""

import hashlib
import json
import os
import random

import numpy as np
import pytest

from repro.circuit import Circuit, GateType
from repro.circuits import get_benchmark, list_benchmarks, random_circuit
from repro.probability.weights import compute_weights
from repro.reliability.compiled_pass import CompiledSinglePass
from repro.reliability.tensor_pass import TensorBatch

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "plain_kernel_digests.json")

#: (seed, inputs, gates, outputs) of the random netlists.
RANDOM = [(seed, 6 + seed, 25 + 40 * seed, 2 + seed % 3)
          for seed in range(6)]
#: Seeds of the wide-gate netlists (arities 1..9: fused and shared-mask
#: tensor groups, chunked gate batches).
WIDE = [0, 1, 2]
NAMES = (list_benchmarks() + [f"rand{s}" for s, *_ in RANDOM]
         + [f"wide{s}" for s in WIDE])
DTYPES = ["float64", "float32"]
WIDTHS = [2, 5]
KINDS = ["symmetric", "asymmetric", "per_gate"]

EPS = [0.0, 0.001, 0.05, 0.2, 0.35]
EPS10 = [0.3, 0.02, 0.0, 0.15, 0.4]


def _wide_circuit(seed: int) -> Circuit:
    rng = random.Random(seed)
    circuit = Circuit(f"wide{seed}")
    nodes = [circuit.add_input(f"i{j}") for j in range(10)]
    kinds = [(GateType.NOT, 1), (GateType.BUF, 1), (GateType.NAND, 3),
             (GateType.OR, 4), (GateType.XOR, 3), (GateType.AND, 7),
             (GateType.NOR, 9), (GateType.AND, 2), (GateType.XNOR, 2)]
    for j in range(40 + 10 * seed):
        gate_type, k = rng.choice(kinds)
        fanins = rng.sample(nodes[-14:], k)
        nodes.append(circuit.add_gate(f"g{j}", gate_type, fanins))
    for name in nodes[-3:]:
        circuit.set_output(name)
    return circuit


def _circuit(name: str) -> Circuit:
    if name.startswith("rand"):
        seed, n_in, n_gates, n_out = RANDOM[int(name[4:])]
        return random_circuit(n_inputs=n_in, n_gates=n_gates,
                              n_outputs=n_out, seed=seed, name=name)
    if name.startswith("wide"):
        return _wide_circuit(int(name[4:]))
    return get_benchmark(name)


def _plans(dtype: str):
    plans = []
    for name in NAMES:
        circuit = _circuit(name)
        weights = compute_weights(circuit, method="sampled",
                                  n_patterns=1 << 10, seed=0)
        plans.append(CompiledSinglePass(circuit, weights, dtype=dtype))
    return plans


def _specs(plan, kind: str, width: int):
    """``(eps_specs, eps10_specs)`` of one sweep."""
    if kind == "per_gate":
        return ([{g: 0.001 * ((7 * i + 3 * j) % 50)
                  for i, g in enumerate(plan.gate_names)}
                 for j in range(width)], None)
    return EPS[:width], (EPS10[:width] if kind == "asymmetric" else None)


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _entry(sweep) -> dict:
    return {"per_output": _sha(sweep.per_output), "p01": _sha(sweep.p01),
            "p10": _sha(sweep.p10)}


def _solo_digests(plans) -> dict:
    return {name: {
        f"{kind}/{width}": _entry(plan.run_sweep(*_specs(plan, kind, width)))
        for kind in KINDS for width in WIDTHS}
        for name, plan in zip(NAMES, plans)}


def _batch_digests(plans) -> dict:
    batch = TensorBatch(plans)
    out = {name: {} for name in NAMES}
    for kind in KINDS:
        for shift in range(len(WIDTHS)):
            widths = [WIDTHS[(i + shift) % len(WIDTHS)]
                      for i in range(len(plans))]
            specs = [_specs(plan, kind, w) for plan, w in zip(plans, widths)]
            sweeps = batch.run_sweep([s for s, _ in specs],
                                     [e10 for _, e10 in specs])
            for name, width, sweep in zip(NAMES, widths, sweeps):
                out[name][f"{kind}/{width}"] = _entry(sweep)
    return out


def record() -> dict:
    data = {}
    for dtype in DTYPES:
        plans = _plans(dtype)
        solo, batched = _solo_digests(plans), _batch_digests(plans)
        assert batched == solo, "batched sweeps differ from solo sweeps"
        for name in NAMES:
            data[f"{name}/{dtype}"] = solo[name]
    return data


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=DTYPES)
def dtype_plans(request):
    return request.param, _plans(request.param)


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(f"{n}/{d}" for n in NAMES
                                      for d in DTYPES)


def test_solo_sweeps_match_recorded_digests(recorded, dtype_plans):
    dtype, plans = dtype_plans
    for name, digests in _solo_digests(plans).items():
        assert digests == recorded[f"{name}/{dtype}"], name


def test_batched_sweeps_match_recorded_digests(recorded, dtype_plans):
    dtype, plans = dtype_plans
    for name, digests in _batch_digests(plans).items():
        assert digests == recorded[f"{name}/{dtype}"], name


def test_width_one_equals_duplicated_width_two(dtype_plans):
    """A 1-point sweep is column 0 of ``[e, e]``, solo and batched."""
    _, plans = dtype_plans
    for kind in KINDS:
        one = [_specs(plan, kind, 1) for plan in plans]
        two = [(s * 2, None if e10 is None else e10 * 2) for s, e10 in one]
        expected = [plan.run_sweep(*spec) for plan, spec in zip(plans, two)]
        solos = [plan.run_sweep(*spec) for plan, spec in zip(plans, one)]
        batch = TensorBatch(plans)
        # Ragged: every other circuit is batched at width 2.
        mixed = [two[i] if i % 2 else one[i] for i in range(len(plans))]
        batched = batch.run_sweep([s for s, _ in mixed],
                                  [e10 for _, e10 in mixed])
        for i, (plan, want) in enumerate(zip(plans, expected)):
            for got, width in ((solos[i], 1), (batched[i], 1 + i % 2)):
                for field in ("per_output", "p01", "p10"):
                    assert np.array_equal(
                        getattr(got, field),
                        getattr(want, field)[:, :width]), (
                            plan.circuit.name, kind, field, width)


if __name__ == "__main__":
    data = record()
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} entries to {FIXTURE}")
