"""Determinism: fixed seed -> bit-identical result rows.

The golden fixture was captured before the kernel fast-path work
(pooled charges, detached tasks, callback delivery ops), so these tests
pin two properties at once: repeated runs agree with each other, and
the optimised kernel agrees with the original event ordering.

E01 and E15 are the two cheapest experiments that still cross every
optimised layer: RDMA delivery ops, charge pooling, the doorbell sweep
loop, and (for E15) the consistency-barrier plan.  ``GOLDEN_KEYS``
extends the check to every other fixture row that still matches and
runs in a few seconds.
"""

import json
import os

import pytest

from repro.experiments import REGISTRY, e01_invocation_overhead, \
    e15_consistency_barrier

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                       "golden_fast_rows.json")


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


def _rows(module):
    result = module.run(fast=True, seed=42)
    # Round-trip through JSON so float formatting matches the fixture.
    return json.loads(json.dumps(result.rows))


#: The other fixture keys, pinned because they cross the core and channel
#: legs (host-centric driver calls, memcached, Innova, VCA, pipelines).
#: Left out: E04/E05, whose fixture rows predate re-seeding (E04's rows
#: are pinned by the e2e benchmark's expected rows instead), and
#: E11/E12, which take about 26 s and 20 s.
GOLDEN_KEYS = ("E02", "E03", "E06", "E07", "E08", "E09", "E10", "E13",
               "E14")


class TestGoldenRows:
    def test_e01_rows_bit_identical(self, golden):
        assert _rows(e01_invocation_overhead) == golden["E01"]

    def test_e15_rows_bit_identical(self, golden):
        assert _rows(e15_consistency_barrier) == golden["E15"]

    @pytest.mark.parametrize("key", GOLDEN_KEYS)
    def test_rows_bit_identical(self, golden, key):
        assert _rows(REGISTRY[key]) == golden[key]

    def test_e01_repeatable_within_process(self, golden):
        first = _rows(e01_invocation_overhead)
        second = _rows(e01_invocation_overhead)
        assert first == second == golden["E01"]


class TestUnarmedFaultLayer:
    """PR 5's zero-overhead guarantee: with the fault-injection layer
    importable (it always is — E16 pulls it in) but no schedule armed,
    the golden rows captured before the layer existed still match."""

    def test_e01_golden_with_fault_layer_loaded(self, golden):
        import repro.faults  # noqa: F401 — presence is the point

        assert _rows(e01_invocation_overhead) == golden["E01"]

    def test_e15_golden_with_fault_layer_loaded(self, golden):
        import repro.faults  # noqa: F401

        assert _rows(e15_consistency_barrier) == golden["E15"]
