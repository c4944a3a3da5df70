"""Reference deltas the end-to-end benchmark checks every answer against.

The golden files under ``golden/`` hold, for every (circuit, mode) a
workload can ask about, the per-output deltas at each of the 32 values of
:data:`POOL`, plus every state the ``edit_loop`` workload can reach.  Any
seed therefore draws its requests from inside the covered set, and an
answer that differs from the reference by more than :data:`TOLERANCE`
counts as a failed operation.

Regenerate (a benchmark change of its own, never part of a perf change)::

    PYTHONPATH=src python benchmarks/e2e/reference.py

The generator imports the program; the checking half of this module does
not, so the harness stays a pure client.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The eps values every workload draws its requests from.
POOL = tuple(round(0.005 * k, 3) for k in range(1, 33))

#: Absolute tolerance of the reference check.
TOLERANCE = 1e-9

#: Digits kept in the golden files (far below the tolerance).
_DIGITS = 12

#: (circuit, restricted outputs or None, correlation on?) per workload.
CIRCUITS = {
    "cold_cli": [("c499", None, True), ("rand50k", ("probe_mid",), True)],
    "warm_serve": [(c, None, True) for c in ("c17", "x2", "cu", "c432",
                                             "c499")],
    "batch_plain": [(c, None, False) for c in ("c17", "x2", "cu", "c432",
                                               "c880", "c1355", "c2670")],
}

#: The edit session's circuit and the eps values ``set_eps`` draws from.
EDIT_CIRCUIT = "c499"
EDIT_EPS = (0.01, 0.02, 0.05, 0.1)

#: Same-arity replacement type for each gate type an edit may swap.
_SWAP_TYPE = {"and": "or", "or": "and", "nand": "nor", "nor": "nand",
              "xor": "xnor", "xnor": "xor"}


def entry_key(circuit: str, correlation: bool,
              outputs: Optional[Sequence[str]] = None) -> str:
    """Golden-entry name for one (circuit, mode[, output subset])."""
    mode = "corr" if correlation else "plain"
    if outputs:
        return f"{circuit}[{','.join(outputs)}]/{mode}"
    return f"{circuit}/{mode}"


def edit_key(swapped: Optional[str]) -> str:
    """Golden-entry name for an edit state (None = the original circuit)."""
    return f"{EDIT_CIRCUIT}+{swapped or 'none'}/corr"


def eps_index(eps: float) -> int:
    return POOL.index(eps)


def load(workload: str) -> Dict[str, Any]:
    path = GOLDEN_DIR / f"{workload}.json"
    doc = json.loads(path.read_text())
    if tuple(doc["pool"]) != POOL:
        raise ValueError(f"{path}: eps pool differs from reference.POOL")
    return doc


def check_points(entry: Dict[str, Any], indices: Sequence[int],
                 points: Sequence[Dict[str, Any]],
                 label: str) -> List[str]:
    """Mismatch descriptions for one answer (empty list = correct).

    ``points`` is the ``points`` list of an ``analyze`` document; point
    ``j`` must carry the reference deltas of pool value ``indices[j]``
    for exactly the entry's outputs.
    """
    if len(points) != len(indices):
        return [f"{label}: {len(points)} points, expected {len(indices)}"]
    outputs = entry["outputs"]
    problems = []
    for point, idx in zip(points, indices):
        got = point.get("per_output") or {}
        if sorted(got) != sorted(outputs):
            problems.append(f"{label} eps={POOL[idx]}: outputs "
                            f"{sorted(got)[:4]}... != reference")
            continue
        for name, ref in zip(outputs, entry["deltas"][idx]):
            if not abs(float(got[name]) - ref) <= TOLERANCE:
                problems.append(f"{label} eps={POOL[idx]} {name}: "
                                f"{got[name]!r} vs reference {ref!r}")
    return problems


# ----------------------------------------------------------------------
# Generation (imports the program; run with PYTHONPATH=src)
# ----------------------------------------------------------------------

def _rows(per_output_by_point: List[Dict[str, float]],
          outputs: List[str]) -> List[List[float]]:
    return [[round(float(p[o]), _DIGITS) for o in outputs]
            for p in per_output_by_point]


def _circuit_entry(name: str, outputs, correlation: bool) -> Dict[str, Any]:
    from repro.circuits import get_benchmark
    from repro.reliability import SinglePassAnalyzer

    analyzer = SinglePassAnalyzer(get_benchmark(name),
                                  use_correlation=correlation,
                                  outputs=list(outputs) if outputs else None)
    sweep = analyzer.sweep(list(POOL))
    names = list(analyzer.circuit.outputs)
    points = [sweep.point(j).per_output for j in range(len(POOL))]
    return {"outputs": names, "deltas": _rows(points, names)}


def _edit_gates() -> Dict[str, List[str]]:
    """16 fixed two-input gates of the edit circuit and their swap type."""
    from repro.circuits import get_benchmark

    circuit = get_benchmark(EDIT_CIRCUIT)
    two_input = [g for g in circuit.topological_gates()
                 if circuit.node(g).arity == 2]
    gates = {}
    for gate in two_input[::13][:16]:
        kind = circuit.node(gate).gate_type.value
        gates[gate] = [kind, _SWAP_TYPE[kind]]
    return gates


def _edit_entry(swap: Optional[List[Any]]) -> Dict[str, Any]:
    """Deltas of a fresh edit session, optionally after one swap."""
    from repro.engine import AnalysisEngine

    with AnalysisEngine() as engine:
        first = {"op": "reanalyze", "session": "golden",
                 "circuit": EDIT_CIRCUIT}
        if swap is not None:
            first = {"op": "edit", "session": "golden",
                     "circuit": EDIT_CIRCUIT,
                     "edits": [{"kind": "swap_gate", "gate": swap[0],
                                "gate_type": swap[1]}]}
        created = engine.submit(first)
        if not created.ok:
            raise RuntimeError(created.error)
        response = engine.submit({"op": "analyze", "session": "golden",
                                  "eps": list(POOL)})
        if not response.ok:
            raise RuntimeError(response.error)
    points = [p["per_output"] for p in response.result["points"]]
    names = list(points[0])
    return {"outputs": names, "deltas": _rows(points, names)}


def generate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, specs in CIRCUITS.items():
        entries = {entry_key(c, corr, outs): _circuit_entry(c, outs, corr)
                   for c, outs, corr in specs}
        _write(workload, {"entries": entries})
    gates = _edit_gates()
    entries = {edit_key(None): _edit_entry(None)}
    for gate, (_, alt) in gates.items():
        entries[edit_key(gate)] = _edit_entry([gate, alt])
    _write("edit_loop", {"gates": gates, "set_eps": list(EDIT_EPS),
                         "entries": entries})


def _write(workload: str, body: Dict[str, Any]) -> None:
    doc = {"pool": list(POOL), "tolerance": TOLERANCE, **body}
    path = GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {path} ({len(body['entries'])} entries)")


if __name__ == "__main__":
    generate()
