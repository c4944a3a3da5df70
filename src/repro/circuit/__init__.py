"""Circuit substrate: gate model, netlist DAG, analysis, and transforms."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".gate": ["GateType", "GateArityError", "evaluate_gate", "truth_table",
              "inverted_type", "parse_gate_type"],
    ".circuit": ["Circuit", "CircuitError", "Node", "structural_hash"],
    ".builder": ["CircuitBuilder", "SequentialBuilder"],
    ".sequential": ["FlipFlop", "SequentialCircuit", "is_sequential"],
    ".unroll": ["frame_name", "split_frame_name", "unroll"],
    ".transform": ["combinational_envelope", "expand_xor", "limit_fanout",
                   "strip_buffers", "triplicate_gates"],
    ".analysis": ["CircuitStats", "circuit_stats", "cone_size",
                  "fanout_stems", "input_support", "is_tree", "node_index",
                  "reconvergent_gates", "support_bitsets"],
    ".restructure": ["map_to_nand", "rebalance_chains"],
    ".equivalence": ["EquivalenceResult", "are_equivalent"],
})
