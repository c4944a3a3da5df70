"""From-scratch ROBDD engine and circuit bridge."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".manager": ["Bdd", "BddManager", "BddSizeLimitError"],
    ".ops": ["CircuitBdds", "build_node_bdds", "joint_probability"],
    ".ordering": ["HEURISTICS", "best_order", "build_with_best_order",
                  "declaration_order", "dfs_order", "fanin_level_order",
                  "total_bdd_size"],
})
