"""Probability substrate: signal probabilities, weight vectors, correlations."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".signal_prob": ["CorrelationSignalProbability",
                     "correlation_signal_probabilities",
                     "exact_signal_probabilities",
                     "sampled_signal_probabilities"],
    ".weights": ["WeightData", "bdd_weight_vectors", "compute_weights",
                 "exhaustive_weight_vectors", "sampled_weight_vectors"],
    ".sat_weights": ["SatTierOptions", "sat_signal_probabilities",
                     "sat_weight_vectors"],
    ".error_propagation": ["ERROR_FREE", "EVENT_0TO1", "EVENT_1TO0",
                           "CorrelationFn", "ErrorProbability",
                           "combine_with_local_failure",
                           "conditional_error_probability",
                           "transition_probability",
                           "weighted_error_components"],
    ".correlation": ["ErrorCorrelationEngine", "IndependentCorrelations"],
    ".bounds": ["Interval", "bound_report", "signal_probability_bounds"],
})
