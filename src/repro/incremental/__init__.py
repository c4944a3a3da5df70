"""Incremental (ECO-style) analysis: edit a circuit, pay only the cone.

See docs/incremental.md for the edit model, the dirty-cone rules, and the
patch-vs-relower ladder.
"""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".edits": ["AddGate", "Edit", "RemoveGate", "SetEps", "SwapGate",
               "Triplicate", "edit_to_dict", "parse_edit"],
    ".workspace": ["CircuitWorkspace", "EditReport"],
})
