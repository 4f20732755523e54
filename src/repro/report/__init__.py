"""Reporting: the paper-anchor scorecard over the committed results."""

from .scorecard import grade, render_scorecard, score_results_dir, score_rows

__all__ = ["grade", "score_rows", "score_results_dir", "render_scorecard"]
