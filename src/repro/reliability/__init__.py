"""Reliability analysis algorithms: the paper's core contribution."""

from .._lazy import attach

__all__, __getattr__, __dir__ = attach(__name__, {
    ".observability": ["bdd_observabilities", "compute_observabilities",
                       "sampled_observabilities"],
    ".closed_form": ["ClosedFormResult", "MultiOutputObservabilityModel",
                     "ObservabilityModel", "closed_form_delta"],
    ".protocol": ["ResultProtocol"],
    ".compiled_pass": ["CompiledCorrelatedPass", "CompiledPassUnsupported",
                       "CompiledSinglePass", "SweepResult"],
    ".tensor_pass": ["TensorBatch"],
    ".single_pass": ["SinglePassAnalyzer", "SinglePassResult",
                     "group_per_frame"],
    ".sequential": ["SequentialAnalyzer", "SteadyStateResult"],
    ".exact": ["ExactResult", "bdd_exact_reliability", "evaluate_polynomial",
               "exhaustive_exact_reliability",
               "fixed_failure_error_probability",
               "frontier_exact_reliability", "reliability_polynomial"],
    ".ptm": ["PtmWidthError", "ptm_reliability"],
    ".consolidated": ["ConsolidatedAnalyzer", "ConsolidatedResult",
                      "output_joint_distributions"],
    ".sensitivity": ["asymmetry_report", "epsilon_map", "rank_critical_gates",
                     "single_pass_sensitivities"],
    ".comparison": ["Comparison", "MethodRow", "compare_methods"],
    ".analytical": ["compositional_delta", "multiplexing_trajectory",
                    "nand_excitation_step", "nand_fixed_points",
                    "von_neumann_threshold"],
})
