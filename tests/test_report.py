"""The paper-anchor scorecard and the campaign importance table."""

import pytest


class TestScorecard:
    def test_grade_bands(self):
        from repro.report import grade

        assert grade(100, 100) == "MATCH"
        assert grade(120, 100) == "MATCH"
        assert grade(150, 100) == "NEAR"
        assert grade(300, 100) == "DEVIATES"
        assert grade(1, None) is None
        assert grade(None, 5) is None

    def test_score_rows_pairs_columns(self):
        from repro.report import score_rows

        rows = [{"krps": 3.5, "paper_krps": 3.5, "other": 1},
                {"krps": 9.0, "paper_krps": 3.0}]
        findings = score_rows(rows)
        assert [f["verdict"] for f in findings] == ["MATCH", "DEVIATES"]

    def test_results_dir_scoring(self, tmp_path):
        import json

        from repro.report import render_scorecard, score_results_dir

        blob = {"exp_id": "E42", "rows": [{"krps": 2.9, "paper_krps": 2.8}]}
        (tmp_path / "E42.json").write_text(json.dumps(blob))
        scores = score_results_dir(str(tmp_path))
        assert "E42" in scores
        card = render_scorecard(scores)
        assert "MATCH 1" in card

    @pytest.mark.parametrize("results", ["results", "results-full-sweep"])
    def test_each_anchor_graded_once(self, results):
        import os

        from repro.report import score_results_dir

        root = os.path.join(os.path.dirname(__file__), os.pardir)
        scores = score_results_dir(os.path.join(root, "benchmarks", results))
        graded = [(exp_id, f["row"], f["metric"])
                  for exp_id, findings in scores.items() for f in findings]
        assert graded
        assert len(graded) == len(set(graded))

    def test_missing_dir_rejected(self):
        from repro.errors import ConfigError
        from repro.report import score_results_dir

        with pytest.raises(ConfigError):
            score_results_dir("/nonexistent/dir")


class TestImportanceTable:
    def _doc(self):
        return {
            "schema": "repro.campaign/1",
            "campaigns": [
                {"exp_id": "ABL-A", "metric": "krps",
                 "variants": [],
                 "importance": [
                     {"component": "small", "knob": "k1",
                      "importance": 0.05, "harmful": False,
                      "signals": {"goodput": -0.05, "p99_us": None,
                                  "kernel_events": 0.01,
                                  "core_burn": None}}]},
                {"exp_id": "ABL-B", "metric": "p99_us",
                 "variants": [],
                 "importance": [
                     {"component": "bad", "knob": "k2",
                      "importance": -0.4, "harmful": True,
                      "signals": {"goodput": 0.4, "p99_us": -0.2,
                                  "kernel_events": None,
                                  "core_burn": 0.1}}]},
            ],
        }

    def test_ranked_by_abs_importance_with_harmful_flag(self):
        from repro.report.scorecard import render_importance

        table = render_importance(self._doc())
        lines = table.splitlines()
        bad_line = next(line for line in lines if "bad" in line)
        small_line = next(line for line in lines if "small" in line)
        # |−0.4| outranks |0.05|
        assert lines.index(bad_line) < lines.index(small_line)
        assert "HARMFUL" in bad_line
        assert "HARMFUL" not in small_line
        assert "+40.0%" in bad_line and "n/a" in small_line

    def test_accepts_bare_campaign_list_and_empty(self):
        from repro.report.scorecard import render_importance

        assert "ABL-A" in render_importance(self._doc()["campaigns"])
        assert "(no campaigns)" in render_importance([])

    def test_load_results_campaign(self, tmp_path):
        import json

        from repro.report.scorecard import load_results_campaign

        assert load_results_campaign(str(tmp_path)) is None
        (tmp_path / "campaign.json").write_text(json.dumps(self._doc()))
        doc = load_results_campaign(str(tmp_path))
        assert [c["exp_id"] for c in doc["campaigns"]] == ["ABL-A", "ABL-B"]

    def test_scorecard_appends_importance_section(self):
        from repro.report.scorecard import render_scorecard

        card = render_scorecard({}, campaign=self._doc())
        assert "component importance" in card
        assert "HARMFUL" in card
