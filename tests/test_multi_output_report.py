"""Tests for the multi-output closed form and the report generator."""

import pytest

from repro.circuits import c17, get_benchmark
from repro.report import ReportConfig, reliability_report
from repro.reliability import MultiOutputObservabilityModel
from repro.sim import monte_carlo_reliability


class TestMultiOutputModel:
    def test_per_output_matches_single_output_models(self):
        circuit = c17()
        multi = MultiOutputObservabilityModel(circuit)
        from repro.reliability import ObservabilityModel
        for out in circuit.outputs:
            single = ObservabilityModel(circuit, output=out)
            assert multi.delta(0.05)[out] == pytest.approx(
                single.delta(0.05))

    def test_any_output_observability_dominates_per_output(self):
        circuit = c17()
        multi = MultiOutputObservabilityModel(circuit)
        for out, model in multi.per_output_models.items():
            for gate, o in model.observabilities.items():
                assert (multi.any_output_observabilities[gate]
                        >= o - 1e-12), (out, gate)

    def test_any_output_delta_first_order(self):
        circuit = c17()
        multi = MultiOutputObservabilityModel(circuit)
        eps = 1e-5
        mc_like = sum(multi.any_output_observabilities.values()) * eps
        assert multi.any_output_delta(eps) == pytest.approx(mc_like,
                                                            rel=1e-3)

    def test_tracks_mc_at_small_eps(self):
        circuit = c17()
        multi = MultiOutputObservabilityModel(circuit)
        eps = 0.02
        mc = monte_carlo_reliability(circuit, eps, n_patterns=1 << 16,
                                     seed=1)
        assert multi.any_output_delta(eps) == pytest.approx(mc.any_output,
                                                            abs=0.02)

    def test_sampled_mode(self):
        circuit = get_benchmark("x2")
        multi = MultiOutputObservabilityModel(circuit, method="sampled",
                                              n_patterns=1 << 13)
        deltas = multi.delta(0.01)
        assert set(deltas) == set(circuit.outputs)
        assert all(0 <= v <= 0.5 for v in deltas.values())

    def test_abandoned_bdd_attempt_falls_back_to_sampling(self,
                                                          monkeypatch):
        """An ``auto`` model whose BDDs pass the node limit answers from
        the sampled estimator and names the abandoned attempt."""
        from repro.bdd import BddSizeLimitError
        from repro.reliability import closed_form
        circuit = c17()
        assert MultiOutputObservabilityModel(circuit).fallbacks == []
        monkeypatch.setattr(closed_form, "OBSERVABILITY_NODE_LIMIT", 8)
        auto = MultiOutputObservabilityModel(circuit, n_patterns=1 << 10)
        sampled = MultiOutputObservabilityModel(circuit, method="sampled",
                                                n_patterns=1 << 10)
        assert auto.delta(0.05) == sampled.delta(0.05)
        assert auto.any_output_delta(0.05) == sampled.any_output_delta(0.05)
        assert auto.fallbacks == [{
            "from": "bdd-observabilities",
            "to": "sampled-observabilities",
            "reason": "exact BDD observabilities passed the 8-node limit; "
                      "observabilities estimated from 1024 random patterns",
            "node_limit": 8}]
        with pytest.raises(BddSizeLimitError):
            MultiOutputObservabilityModel(circuit, method="bdd")

    def test_engine_envelope_names_the_sampled_fallback(self, monkeypatch):
        from repro.engine import AnalysisEngine
        from repro.reliability import closed_form
        monkeypatch.setattr(closed_form, "OBSERVABILITY_NODE_LIMIT", 8)
        with AnalysisEngine() as engine:
            envs = [engine.submit({"op": op, "circuit": "c17", "eps": 0.05,
                                   "method": method}).to_dict()
                    for op, method in (("closed-form", "single-pass"),
                                       ("analyze", "closed-form"))]
        for env in envs:
            assert env["ok"], env.get("error")
            (entry,) = env["fallbacks"]
            assert entry["from"] == "bdd-observabilities"


class TestReport:
    @pytest.fixture(scope="class")
    def report_text(self):
        config = ReportConfig(eps_values=(0.01, 0.05), mc_patterns=1 << 12,
                              testability_patterns=1 << 10)
        return reliability_report(c17(), config)

    def test_sections_present(self, report_text):
        for heading in ("# Reliability report — c17", "## Structure",
                        "## Output error probability",
                        "## Critical gates", "## Error asymmetry",
                        "## Random-pattern testability"):
            assert heading in report_text

    def test_structure_row(self, report_text):
        assert "| 5 | 2 | 6 | 3 |" in report_text

    def test_delta_rows(self, report_text):
        assert report_text.count("| 0.0") >= 2  # one row per eps value

    def test_testability_optional(self):
        config = ReportConfig(eps_values=(0.05,), mc_patterns=1 << 10,
                              include_testability=False)
        text = reliability_report(c17(), config)
        assert "Random-pattern testability" not in text

    def test_cli_report(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "r.md"
        assert main(["report", "c17", "--patterns", "1024",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("# Reliability report")
