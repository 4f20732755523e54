"""Golden campaign determinism (DESIGN.md §4.8 + §4.12).

One real (but cheap) campaign — ABL-CO, two simulated variants — must
produce bit-identical rows, run ids, and importance scores at
``--jobs 1`` vs ``--jobs 4``.  The sweep executor clamps to the
machine's usable cores, so on a small runner both may run inline — the
contract under test is that the jobs knob can never change values,
clamped or not.
"""

import json

import pytest

from repro import telemetry
from repro.experiments.ablations import coalescing_study


def _doc(jobs):
    with telemetry.scope():
        outcome = coalescing_study.run(fast=True, seed=42, jobs=jobs)
    # wall-clock-free by construction: to_doc carries rows, run ids,
    # scores, and snapshot-derived importance, never raw wall seconds
    return json.loads(json.dumps(outcome.to_doc()))


@pytest.fixture(scope="module")
def reference():
    return _doc(jobs=1)


class TestCampaignDeterminism:
    def test_parallel_matches_serial(self, reference):
        assert _doc(jobs=4) == reference

    def test_reference_shape(self, reference):
        assert reference["exp_id"] == "ABL-CO"
        tokens = [v["token"] for v in reference["variants"]]
        assert tokens == ["True", "False"]
        (entry,) = reference["importance"]
        assert entry["component"] == "coalescing"
        assert entry["importance"] is not None
