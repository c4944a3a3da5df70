"""Circuit references: a name, path or circuit, resolved for analysis.

Kept apart from :mod:`repro.engine.session` so that resolving a
reference (which the CLI does on every ``repro analyze``) loads only the
circuit substrate and the benchmark catalog, and the netlist readers
only when a file path is given.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from ..circuit import Circuit, SequentialCircuit, unroll
from ..circuits.catalog import get_benchmark
from ..circuits.sequential import get_sequential_benchmark

#: What callers may hand to the engine as "a circuit".
CircuitRef = Union[str, Circuit, SequentialCircuit]


def resolve_circuit(ref: CircuitRef) -> Union[Circuit, SequentialCircuit]:
    """Turn a circuit reference into a circuit object.

    Accepts a ready :class:`Circuit` / :class:`SequentialCircuit`, a
    netlist path (``.bench`` / ``.blif``), or a built-in benchmark name
    (combinational catalog first, then the sequential fixtures).  Netlist
    files declaring DFF/LATCH elements resolve to a
    :class:`SequentialCircuit`.  Raises :class:`ValueError` for anything
    else — the serve loop converts that into an error envelope instead of
    dying.
    """
    if isinstance(ref, (Circuit, SequentialCircuit)):
        return ref
    path = Path(ref)
    if path.exists():
        if path.suffix == ".bench":
            from ..io.bench import load_bench
            return load_bench(path)
        if path.suffix == ".blif":
            from ..io.blif import load_blif
            return load_blif(path)
        raise ValueError(f"unsupported netlist extension: {path.suffix}")
    try:
        return get_benchmark(ref)
    except KeyError:
        pass
    try:
        return get_sequential_benchmark(ref)
    except KeyError:
        raise ValueError(
            f"{ref!r} is neither a file nor a known benchmark "
            f"(try: repro bench)") from None


def resolve_analysis_circuit(ref: CircuitRef,
                             frames: Optional[int] = None) -> Circuit:
    """Resolve a reference to the combinational circuit a session analyzes.

    Sequential circuits must come with a frame count: they are unrolled
    into ``frames`` time frames (:func:`repro.circuit.unroll`), and a
    sequential reference without ``frames`` raises a clear
    :class:`ValueError` instead of failing deep inside the analyzer.
    Combinational circuits pass through untouched when ``frames`` is None
    (the default — nothing changes for existing callers); with ``frames``
    set they go through the same unroll transform (``frames=1`` is the
    structural identity).
    """
    resolved = resolve_circuit(ref)
    if isinstance(resolved, SequentialCircuit):
        if frames is None:
            raise ValueError(
                f"circuit {resolved.name!r} is sequential "
                f"({resolved.num_flops} flops): pass frames=k to unroll "
                f"it into k time frames, e.g. repro.analyze(..., frames=4) "
                f"or repro analyze --frames 4")
        return unroll(resolved, frames)
    if frames is not None:
        return unroll(resolved, frames)
    return resolved
