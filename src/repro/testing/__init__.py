"""Testing substrate: stuck-at faults, fault simulation, BDD-based ATPG."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".faults": ["Fault", "FaultSimulationResult", "StuckAt",
                "collapse_faults", "full_fault_list"],
    ".fault_sim": ["hard_faults", "random_pattern_testability",
                   "simulate_faults"],
    ".atpg": ["AtpgEngine", "redundant_faults"],
})
