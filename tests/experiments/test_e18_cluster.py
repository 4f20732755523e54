"""E18: cluster scale-out shape, steering acceptance, failover
determinism across --jobs 1/4 (DESIGN.md §4.15)."""

import json

import pytest

from repro import telemetry
from repro.errors import FaultError
from repro.experiments import e18_cluster as e18
from repro.faults import RackFailure


@pytest.fixture(scope="module")
def result():
    return e18.run(fast=True, seed=42, jobs=1)


class TestShape:
    def test_baseline_plus_one_knob_off_grid(self, result):
        tokens = [row["variant"] for row in result.rows]
        assert tokens == ["baseline", "policy=round_robin",
                          "policy=least_loaded", "nodes=4", "nodes=2",
                          "failover=True"]

    def test_rows_carry_the_scaleout_metrics(self, result):
        for row in result.rows:
            assert row["goodput_krps"] > 0
            assert row["p99_us"] > 0
            assert row["miss_rate"] < 0.2

    def test_fault_free_variants_drop_nothing_rack_down(self, result):
        for row in result.rows:
            if row["failover"] == "none":
                assert row["rack_down_drops"] == 0


class TestSteeringAcceptance:
    def test_p2c_beats_round_robin_p99_at_eight_replicas(self, result):
        # The E18 acceptance bar: under Zipf keys and 5x-heavy hot
        # values, two depth probes beat a depth-blind rotation.
        p2c = result.find(variant="baseline")
        rr = result.find(variant="policy=round_robin")
        assert p2c["nodes"] == rr["nodes"] == 8
        assert p2c["p99_us"] < rr["p99_us"]

    def test_two_replicas_saturate(self, result):
        # Fixed offered load over a quarter of the capacity: the small
        # cluster must visibly fall off the goodput/latency cliff.
        big = result.find(variant="baseline")
        small = result.find(variant="nodes=2")
        assert small["goodput_krps"] < 0.7 * big["goodput_krps"]
        assert small["p99_us"] > 10 * big["p99_us"]


class TestFailover:
    # Direct scenario calls run in a telemetry scope: the injector's
    # faults.* counters are registry-wide, and the module fixture's
    # campaign already merged its own failover window into the root.

    def test_outage_is_injected_recovered_and_sampled(self):
        with telemetry.scope():
            out = e18.cluster_scenario("p2c", 4, True, warmup=1000.0,
                                       measure=5000.0, seed=7)
        assert out["faults_injected"] == 1
        assert out["faults_recovered"] == 1
        assert out["goodput_per_sec"] > 0
        assert len(out["timeline_krps"]) == e18.TIMELINE_BUCKETS

    def test_fault_free_run_is_quiet(self):
        with telemetry.scope():
            out = e18.cluster_scenario("p2c", 4, False, warmup=1000.0,
                                       measure=5000.0, seed=7)
        assert out["faults_injected"] == 0
        assert out["rack_down_drops"] == 0
        assert out["timeouts"] == 0
        assert len(out["timeline_krps"]) == e18.TIMELINE_BUCKETS

    def test_rack_failure_validates_the_rack(self):
        with pytest.raises(FaultError):
            RackFailure(rack=-1, start=0.0, duration=1.0)


class TestDeterminism:
    def test_rows_bit_identical_across_jobs(self, result):
        # The E18 acceptance bar: the rack-kill schedule, the ring, and
        # the steering draws land identically at --jobs 1/4.
        again = e18.run(fast=True, seed=42, jobs=4)
        assert json.dumps(again.rows) == json.dumps(result.rows)

    def test_different_seed_different_rows(self, result):
        other = e18.run(fast=True, seed=43, jobs=1)
        assert json.dumps(other.rows) != json.dumps(result.rows)
