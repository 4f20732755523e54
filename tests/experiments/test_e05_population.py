"""E05's fast preset rides the flyweight population plane (§4.13).

The re-based grid must stay inside the determinism contract: rows
bit-identical at ``jobs=1`` vs ``jobs=4`` (the executor clamps to
usable cores — the knob can never change values).
"""

import json

import pytest

from repro.experiments import e05_fig7_latency as e05


def _rows(jobs):
    result = e05.run(fast=True, seed=42, jobs=jobs)
    return json.loads(json.dumps(result.rows))


@pytest.fixture(scope="module")
def reference():
    return _rows(jobs=1)


class TestE05PopulationDeterminism:
    def test_parallel_matches_serial(self, reference):
        assert _rows(jobs=4) == reference

    def test_reference_shape(self, reference):
        assert len(reference) == 6
        for row in reference:
            assert row["bluefield_p50"] > 0
            assert row["xeon6_p50"] > 0
            # slowdown is derived from the unrounded p50s, the row's
            # p50 columns are rounded to 0.1us — compare loosely
            assert row["slowdown"] == pytest.approx(
                row["bluefield_p50"] / row["xeon6_p50"], abs=0.01)
