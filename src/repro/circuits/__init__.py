"""Benchmark circuits: generators, paper stand-ins, and figure circuits."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".generators": ["array_multiplier", "c17", "equality_comparator",
                    "full_adder", "majority_voter", "mux_tree",
                    "one_hot_decoder", "parity_tree", "large_random_netlist",
                    "rand10k", "rand50k", "rand100k", "random_circuit",
                    "ripple_carry_adder", "sec_circuit"],
    ".datapath": ["ALU_OPS", "alu_slice", "barrel_shifter",
                  "carry_lookahead_adder", "kogge_stone_adder",
                  "priority_encoder"],
    ".figures": ["fig1_circuit", "fig2_circuit"],
    ".catalog": ["TABLE2_BENCHMARKS", "BenchmarkEntry", "benchmark_entry",
                 "get_benchmark", "large_catalog", "list_benchmarks"],
    ".sequential": ["SequentialBenchmarkEntry", "get_sequential_benchmark",
                    "list_sequential_benchmarks",
                    "sequential_benchmark_entry", "seq_counter3", "seq_lfsr4",
                    "seq_parity_acc"],
}, submodules=["standins"])
