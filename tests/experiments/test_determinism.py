"""Determinism: fixed seed -> bit-identical result rows.

``benchmarks/results/<ID>.json`` is the one committed store of the
fast-preset rows at seed 42.  The benchmark suite writes it (the
``run_experiment`` fixture in ``benchmarks/conftest.py``); these tests
run each row set afresh and compare its ``to_dict()`` (rows, notes and
title), JSON round-tripped the way that writer serializes it.

Tier-1 covers every row set that runs in about 8 s or less: E01–E03,
E05–E10, E13–E16, E18 and BRK here, and six of the eight ablations in
``test_ablation_parity.py``.  CI's ``rows`` job reruns the whole
benchmark suite and diffs the store, which also covers the slow sets
(E04, E11, E12, E17, ABL-GC, ABL-IN).  Re-baselining is that same run
plus a commit of the diff.
"""

import json
import os

import pytest

from repro import telemetry
from repro.experiments import REGISTRY, ablations, breakdown

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "benchmarks", "results")

#: every fixed-seed row set, by the id its artifact is named after
ROW_SETS = {**REGISTRY, "BRK": breakdown,
            **{camp.exp_id: camp for camp in ablations.ALL_STUDIES}}

#: the row sets cheap enough for tier-1 besides E01 and E15 (the
#: ablations are pinned in test_ablation_parity.py)
CHEAP = ("E02", "E03", "E05", "E06", "E07", "E08", "E09", "E10", "E13",
         "E14", "E16", "E18", "BRK")

#: the benchmark files beside the row sets: wall-clock records
_NOT_ROW_SETS = ("fault_overhead", "kernel_throughput", "parallel_sweep",
                 "traffic_plane")


def committed(exp_id):
    """The committed artifact of *exp_id*."""
    with open(os.path.join(RESULTS, exp_id + ".json")) as fh:
        return json.load(fh)


def fresh(exp_id):
    """A fresh fast run of *exp_id* at seed 42, serialized like the
    artifact."""
    study = ROW_SETS[exp_id]
    run = study if callable(study) else study.run
    with telemetry.scope():
        result = run(fast=True, seed=42)
    return json.loads(json.dumps(result.to_dict(), default=str))


class TestGoldenRows:
    def test_e01_rows_bit_identical(self):
        assert fresh("E01") == committed("E01")

    def test_e15_rows_bit_identical(self):
        assert fresh("E15") == committed("E15")

    @pytest.mark.parametrize("key", CHEAP)
    def test_rows_bit_identical(self, key):
        assert fresh(key) == committed(key)

    def test_e01_repeatable_within_process(self):
        first = fresh("E01")
        second = fresh("E01")
        assert first == second == committed("E01")


class TestOneStore:
    def test_every_row_set_has_one_artifact(self):
        names = [os.path.splitext(name)[0] for name in os.listdir(RESULTS)
                 if name.endswith(".json")]
        row_sets = [name for name in names if name not in _NOT_ROW_SETS]
        assert sorted(row_sets) == sorted(ROW_SETS)


class TestUnarmedFaultLayer:
    """PR 5's zero-overhead guarantee: with the fault-injection layer
    importable (it always is — E16 pulls it in) but no schedule armed,
    the rows captured before the layer existed still match."""

    def test_e01_golden_with_fault_layer_loaded(self):
        import repro.faults  # noqa: F401 — presence is the point

        assert fresh("E01") == committed("E01")

    def test_e15_golden_with_fault_layer_loaded(self):
        import repro.faults  # noqa: F401

        assert fresh("E15") == committed("E15")
