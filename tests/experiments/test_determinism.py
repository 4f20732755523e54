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

``benchmarks/results-full-sweep/<ID>.json`` holds the full-preset rows
(``REPRO_FULL=1``).  Tier-1 compares the sets whose full preset runs
in about 5 s or less.
"""

import json
import os

import pytest

from repro import telemetry
from repro.apps.base import SpinApp
from repro.experiments import REGISTRY, ablations, breakdown
from repro.experiments.common import LYNX_BLUEFIELD, deploy
from repro.faults import FaultInjector, FaultSchedule
from repro.net import ClosedLoopGenerator

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "benchmarks")
RESULTS = os.path.join(BENCHMARKS, "results")
FULL_RESULTS = os.path.join(BENCHMARKS, "results-full-sweep")

#: every fixed-seed row set, by the id its artifact is named after
ROW_SETS = {**REGISTRY, "BRK": breakdown,
            **{camp.exp_id: camp for camp in ablations.ALL_STUDIES}}

#: the row sets cheap enough for tier-1 besides E01 and E15 (the
#: ablations are pinned in test_ablation_parity.py)
CHEAP = ("E02", "E03", "E05", "E06", "E07", "E08", "E09", "E10", "E13",
         "E14", "E16", "E18", "BRK")

#: the full-preset row sets cheap enough for tier-1.  E04 is left out:
#: its committed full artifact no longer reproduces (every row differs
#: by up to about 3%; ROADMAP item 16 re-baselines it).
FULL_CHEAP = ("E01", "E05", "E08", "E09", "E10", "E14", "E15")


def committed(exp_id, results=RESULTS):
    """The committed artifact of *exp_id* in *results*."""
    with open(os.path.join(results, exp_id + ".json")) as fh:
        return json.load(fh)


def fresh(exp_id, fast=True):
    """A fresh run of *exp_id* at seed 42, serialized like the
    artifact."""
    study = ROW_SETS[exp_id]
    run = study if callable(study) else study.run
    with telemetry.scope():
        result = run(fast=fast, seed=42)
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


class TestFullPresetRows:
    @pytest.mark.parametrize("key", FULL_CHEAP)
    def test_rows_bit_identical(self, key):
        assert fresh(key, fast=False) == committed(key, FULL_RESULTS)


class TestOneStore:
    def test_every_row_set_has_one_artifact(self):
        names = [os.path.splitext(name)[0] for name in os.listdir(RESULTS)
                 if name.endswith(".json")]
        assert sorted(names) == sorted(ROW_SETS)


class TestUnarmedFaultLayer:
    """The fault layer's zero-overhead guarantee: an injector armed with
    an empty schedule installs no hook and takes no schedule slot, so a
    closed-loop Lynx testbed serves the same requests in the same
    simulated times with it as without it."""

    @staticmethod
    def _closed_loop(armed):
        with telemetry.scope():
            dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0))
            if armed:
                FaultInjector(FaultSchedule()).arm(dep)
            client = dep.tb.client("10.0.9.1")
            ClosedLoopGenerator(dep.env, client, dep.address, 4,
                                payload_fn=lambda i: b"x" * 64)
            dep.env.run(until=3000.0)
            return (client.responses.count, tuple(client.latency._samples),
                    dep.env.events_processed)

    def test_armed_empty_schedule_changes_nothing(self):
        plain = self._closed_loop(False)
        assert plain[0] > 0
        assert self._closed_loop(True) == plain
