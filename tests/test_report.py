"""ASCII chart rendering."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.report import ALL_FIGURES, bar_chart, cdf_chart, line_chart


class TestBarChart:
    def test_longest_bar_is_the_peak(self):
        chart = bar_chart([("a", 10.0), ("b", 5.0)], width=20)
        lines = chart.splitlines()
        assert lines[0].count("█") == 20
        assert lines[1].count("█") == 10

    def test_labels_and_values_present(self):
        chart = bar_chart([("lynx", 3.5), ("host", 2.8)], unit="K")
        assert "lynx" in chart and "3.50K" in chart
        assert "host" in chart and "2.80K" in chart

    def test_title(self):
        assert bar_chart([("a", 1)], title="T").splitlines()[0] == "T"

    def test_none_value_rendered_as_dash(self):
        chart = bar_chart([("a", 1.0), ("b", None)])
        assert chart.splitlines()[1].endswith("-")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            bar_chart([])


class TestLineChart:
    def test_markers_and_legend(self):
        chart = line_chart({"up": [(0, 0), (10, 10)],
                            "flat": [(0, 5), (10, 5)]})
        assert "o up" in chart
        assert "x flat" in chart
        assert "o" in chart and "x" in chart

    def test_axis_bounds_labelled(self):
        chart = line_chart({"s": [(2, 1), (8, 3)]}, x_label="gpus")
        assert "2.00" in chart and "8.00" in chart
        assert "gpus" in chart

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            line_chart({})
        with pytest.raises(ConfigError):
            line_chart({"s": []})


class TestCdfChart:
    def test_monotone_marker_columns(self):
        rng = np.random.default_rng(0)
        chart = cdf_chart({"lat": rng.exponential(100, 500)})
        assert "fraction of requests" in chart

    def test_two_series(self):
        chart = cdf_chart({"fast": [1, 2, 3] * 20, "slow": [5, 6, 9] * 20})
        assert "fast" in chart and "slow" in chart

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigError):
            cdf_chart({"empty": []})


class TestFigureRegistry:
    def test_every_paper_figure_present(self):
        assert set(ALL_FIGURES) == {"fig5", "fig6", "fig7", "fig8a",
                                    "fig8b", "fig8c", "fig9"}


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


class TestChartProperties:
    """Charts must render for arbitrary well-formed data."""

    def test_bar_chart_random_values(self):
        from hypothesis import given, settings, strategies as st

        @given(values=st.lists(st.floats(min_value=0.001, max_value=1e9,
                                         allow_nan=False),
                               min_size=1, max_size=12))
        @settings(max_examples=30, deadline=None)
        def check(values):
            rows = [("row-%d" % i, v) for i, v in enumerate(values)]
            out = bar_chart(rows)
            assert len(out.splitlines()) == len(values)

        check()

    def test_line_chart_random_points(self):
        from hypothesis import given, settings, strategies as st

        point = st.tuples(st.floats(min_value=-1e6, max_value=1e6,
                                    allow_nan=False),
                          st.floats(min_value=0, max_value=1e6,
                                    allow_nan=False))

        @given(pts=st.lists(point, min_size=1, max_size=40))
        @settings(max_examples=30, deadline=None)
        def check(pts):
            out = line_chart({"s": pts})
            assert "s" in out

        check()


class TestFigureSmoke:
    def test_figure5_renders(self):
        from repro.report.figures import figure5

        out = figure5(fast=True)
        assert "Figure 5" in out
        assert "rdma+rdma" in out


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
