"""Large-netlist substrate: lazy per-cone weights, restricted analysis.

The scaling tier (docs/scaling.md) combines three pieces:

* :class:`LazyWeightData` — a drop-in weight store that materializes
  weight vectors one output cone at a time, on first touch;
* per-cone disk persistence through the ``conewt-`` namespace of
  :mod:`repro.probability.weight_cache`;
* ``outputs=``-restricted analysis in
  :class:`~repro.reliability.single_pass.SinglePassAnalyzer` and the
  engine/CLI on top of it, which only ever touches the union cone.
"""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".lazy_weights": ["LazyWeightData", "cone_weight_vectors",
                      "full_circuit_pack", "resolve_lazy_method"],
})
