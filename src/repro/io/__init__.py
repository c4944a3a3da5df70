"""Netlist I/O: ISCAS-85 ``.bench``, BLIF, and structural Verilog."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".bench": ["BenchFormatError", "dumps_bench", "load_bench", "loads_bench",
               "save_bench"],
    ".blif": ["BlifFormatError", "dumps_blif", "load_blif", "loads_blif",
              "save_blif"],
    ".verilog": ["dumps_verilog", "save_verilog"],
    ".verilog_reader": ["VerilogFormatError", "load_verilog",
                        "loads_verilog"],
    ".dot": ["dumps_dot", "save_dot"],
})
