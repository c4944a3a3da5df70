"""From-scratch SAT substrate: CNF, Tseitin encoding, CDCL solver, ATPG."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".cnf": ["Cnf", "CircuitEncoder", "encode_circuit", "miter"],
    ".solver": ["SatSolver", "SolverBudgetExceeded", "solve_cnf"],
    ".counting": ["ConeCounter", "CountResult", "XorHashCounter",
                  "count_cone_models"],
    ".atpg": ["SatAtpg", "sat_equivalent"],
})
