"""Applications built on the reliability analyses (paper Sec. 5.1)."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".ser": ["GateSerModel", "SerReport", "estimate_ser",
             "uniform_ser_model"],
    ".redundancy": ["HardeningOutcome", "asymmetric_targets",
                    "hardening_sweep", "selective_tmr"],
    ".sequential": ["SequentialSerReport", "SequentialSerRow",
                    "sequential_ser_row", "sequential_ser_table"],
    ".optimize": ["DEFAULT_LADDER", "AllocationResult", "HardeningOption",
                  "allocate_hardening", "hardening_frontier"],
})
