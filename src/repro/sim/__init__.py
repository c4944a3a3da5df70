"""Bit-parallel simulation and Monte Carlo fault injection."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".simulator": ["CompiledCircuit", "evaluate_gate_words",
                   "exhaustive_simulate", "signal_probabilities", "simulate",
                   "simulate_outputs"],
    ".montecarlo": ["EpsilonSpec", "MonteCarloResult", "epsilon_of",
                    "monte_carlo_asymmetric_reliability",
                    "monte_carlo_delta_curve", "monte_carlo_observabilities",
                    "monte_carlo_reliability", "noisy_observabilities",
                    "validate_epsilon"],
    ".rare_event": ["StratifiedEstimator", "StratifiedResult",
                    "stratified_reliability"],
}, submodules=["patterns"])
