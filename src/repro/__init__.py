"""repro — accurate and scalable reliability analysis of logic circuits.

A from-scratch reproduction of Choudhury & Mohanram, *Accurate and scalable
reliability analysis of logic circuits* (DATE 2007): the observability-based
closed form, the single-pass algorithm with correlation coefficients for
reconvergent fanout, and every substrate they rest on (netlist model and
I/O, ROBDD engine, bit-parallel Monte Carlo fault injection, PTM and
exhaustive oracles, benchmark circuit generators, and the Sec. 5.1
applications).

Quick start::

    import repro

    result = repro.analyze("b9", 0.05)           # cold: builds the session
    print(result.per_output)                     # delta_y per output
    result = repro.analyze("b9", 0.01)           # warm: kernel time only
    curve = repro.sweep("b9", [0.001, 0.01, 0.1])

``repro.analyze`` / ``repro.sweep`` route through a process-wide
persistent :class:`~repro.engine.AnalysisEngine` that keeps each
circuit's eps-independent state (weight vectors, compiled plans) hot
between calls; see ``docs/engine.md``.  The underlying classes
(:class:`SinglePassAnalyzer` et al.) remain available for direct use.

Every public name resolves on first access (:mod:`repro._lazy`), so
``import repro`` itself loads no analysis code and no numpy.
"""

from ._lazy import attach

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = attach(__name__, {
    ".circuit": ["Circuit", "CircuitBuilder", "CircuitError", "GateType",
                 "circuit_stats"],
    ".io": ["load_bench", "load_blif", "save_bench", "save_blif",
            "save_verilog"],
    ".probability": ["ErrorProbability", "WeightData", "compute_weights"],
    ".reliability": ["ConsolidatedAnalyzer", "ObservabilityModel",
                     "SinglePassAnalyzer", "SinglePassResult", "TensorBatch",
                     "exhaustive_exact_reliability", "ptm_reliability"],
    ".sim": ["monte_carlo_reliability"],
    ".circuits": ["get_benchmark", "list_benchmarks", "TABLE2_BENCHMARKS"],
    ".incremental": ["CircuitWorkspace", "EditReport", "parse_edit"],
    ".engine": ["AnalysisEngine", "AnalysisRequest", "AnalysisResponse",
                "analyze", "sweep", "default_engine", "set_default_engine"],
}, submodules=["obs"])
__all__ += ["__version__"]
