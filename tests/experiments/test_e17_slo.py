"""E17: sustainable-load bisection, frontier shape, and determinism."""

import gc
import json
import weakref

import pytest

from repro import telemetry
from repro.errors import ConfigError
from repro.experiments import e17_slo_frontier as e17
from repro.experiments import sweep
from repro.experiments.common import HOST_CENTRIC, LYNX_BLUEFIELD
from repro.experiments.slo import find_sustainable_load
from repro.experiments.sweep import derive_seed


def _step_trial(knee):
    """A fake server: p99 is 10us below the knee, 10x the SLO above."""

    def trial(rate, seed):
        overloaded = rate > knee
        return {"p_tail_us": 500.0 if overloaded else 10.0,
                "offered_per_sec": rate * 1e6,
                "delivered_per_sec": rate * 1e6 * (0.5 if overloaded
                                                   else 1.0)}

    return trial


class TestFindSustainableLoad:
    def test_bisects_to_the_knee(self):
        found = find_sustainable_load(_step_trial(0.3), 0.1, 0.9, 50.0,
                                      iters=8)
        assert found.rate == pytest.approx(0.3, abs=(0.9 - 0.1) / 2 ** 8)
        assert found.knee.ok and found.knee.p_tail == 10.0
        assert found.per_sec == found.rate * 1e6
        # bracket ends probed first, then the bisection probes
        assert len(found.trials) == 2 + 8
        assert found.trials[0].rate == 0.1
        assert found.trials[1].rate == 0.9

    def test_nothing_sustainable_returns_zero(self):
        found = find_sustainable_load(_step_trial(0.05), 0.1, 0.9, 50.0,
                                      iters=5)
        assert found.rate == 0.0 and found.knee is None
        # low end failed: no bisection probes were spent
        assert len(found.trials) == 2

    def test_whole_bracket_ok_returns_hi(self):
        found = find_sustainable_load(_step_trial(2.0), 0.1, 0.9, 50.0,
                                      iters=5)
        assert found.rate == 0.9
        assert len(found.trials) == 2

    def test_goodput_floor_rejects_silent_droppers(self):
        # p99 fine, but the server only answers half the offered load.
        def trial(rate, seed):
            return {"p_tail_us": 10.0, "offered_per_sec": rate * 1e6,
                    "delivered_per_sec": rate * 5e5}

        found = find_sustainable_load(trial, 0.1, 0.9, 50.0,
                                      goodput_floor=0.98, iters=3)
        assert found.rate == 0.0

    def test_nan_tail_is_not_sustainable(self):
        def trial(rate, seed):
            return {"p_tail_us": float("nan"),
                    "offered_per_sec": rate * 1e6,
                    "delivered_per_sec": rate * 1e6}

        found = find_sustainable_load(trial, 0.1, 0.9, 50.0, iters=3)
        assert found.rate == 0.0

    def test_trial_seeds_derived_from_index(self):
        seeds = []

        def trial(rate, seed):
            seeds.append(seed)
            return _step_trial(0.3)(rate, seed)

        find_sustainable_load(trial, 0.1, 0.9, 50.0, iters=3, seed=7)
        assert seeds == [derive_seed(7, ("slo-trial", i))
                        for i in range(len(seeds))]
        assert len(set(seeds)) == len(seeds)

    def test_bracket_validated(self):
        with pytest.raises(ConfigError):
            find_sustainable_load(_step_trial(0.3), 0.0, 0.9, 50.0)
        with pytest.raises(ConfigError):
            find_sustainable_load(_step_trial(0.3), 0.5, 0.5, 50.0)


class TestBracketSaturated:
    """Regression: a bracket whose high end sustains the SLO used to be
    indistinguishable from a converged knee — the flag lets callers
    widen instead of reporting the artifact."""

    def test_flag_set_when_the_whole_bracket_sustains(self):
        found = find_sustainable_load(_step_trial(2.0), 0.1, 0.9, 50.0,
                                      iters=5)
        assert found.bracket_saturated
        assert found.rate == 0.9

    def test_flag_clear_on_a_real_knee(self):
        found = find_sustainable_load(_step_trial(0.3), 0.1, 0.9, 50.0,
                                      iters=5)
        assert not found.bracket_saturated

    def test_flag_clear_when_nothing_sustains(self):
        found = find_sustainable_load(_step_trial(0.05), 0.1, 0.9, 50.0,
                                      iters=5)
        assert not found.bracket_saturated


class TestBracketWidening:
    """E17's response to a saturated bracket: re-search [hi, 4*hi] once."""

    def _pin_trial(self, monkeypatch, knee):
        def fake(design, rate, seed, warmup, measure):
            return _step_trial(knee)(rate, seed)

        monkeypatch.setitem(e17.TRIALS, "memcached", fake)

    def _frontier(self, monkeypatch, lo, hi):
        monkeypatch.setitem(e17.BRACKET, "memcached", (lo, hi))
        return e17.measure_frontier("memcached", HOST_CENTRIC, seed=42,
                                    warmup=10.0, measure=10.0, iters=6)

    def test_saturated_bracket_widens_once_and_finds_the_knee(
            self, monkeypatch):
        self._pin_trial(monkeypatch, knee=0.3)
        # knee above the bracket
        out = self._frontier(monkeypatch, lo=0.05, hi=0.1)
        assert out["bracket_widened"]
        assert not out["bracket_saturated"]     # the widened search knelt
        assert out["sustainable_per_sec"] == pytest.approx(0.3e6, rel=0.05)

    def test_normal_knee_does_not_widen(self, monkeypatch):
        self._pin_trial(monkeypatch, knee=0.3)
        out = self._frontier(monkeypatch, lo=0.1, hi=0.9)
        assert not out["bracket_widened"]
        assert not out["bracket_saturated"]
        assert out["sustainable_per_sec"] == pytest.approx(0.3e6, rel=0.05)

    def test_widened_bracket_can_still_saturate(self, monkeypatch):
        self._pin_trial(monkeypatch, knee=10.0)
        # knee above 4*hi too
        out = self._frontier(monkeypatch, lo=0.05, hi=0.1)
        assert out["bracket_widened"]
        assert out["bracket_saturated"]         # reported, not hidden
        assert out["sustainable_per_sec"] == pytest.approx(0.4e6)


@pytest.fixture(scope="module")
def result():
    # Tiny windows + 3 bisection probes: shape/determinism, not accuracy.
    return e17.run(fast=True, seed=42, measure=8000.0, iters=3, jobs=1)


class TestShape:
    def test_one_row_per_workload_and_design(self, result):
        assert len(result.rows) == len(e17.WORKLOADS) * len(e17.DESIGNS)
        for workload in e17.WORKLOADS:
            for design in (HOST_CENTRIC, LYNX_BLUEFIELD):
                row = result.find(workload=workload, design=design)
                assert row["slo_p99_us"] == e17.SLO_US[workload]
                assert row["trials"] >= 2
                assert row["arrivals"] == "poisson"

    def test_sustainable_rates_found(self, result):
        for workload in e17.WORKLOADS:
            for design in (HOST_CENTRIC, LYNX_BLUEFIELD):
                row = result.find(workload=workload, design=design)
                assert row["sustainable_krps"] > 0
                assert row["p99_at_knee_us"] <= row["slo_p99_us"]
                assert row["goodput_at_knee"] >= e17.GOODPUT_FLOOR


class TestDeterminism:
    def test_rows_bit_identical_across_jobs(self, result):
        # The E17 acceptance bar: --jobs 1/4 agree.
        again = e17.run(fast=True, seed=42, measure=8000.0, iters=3, jobs=4)
        assert json.dumps(again.rows) == json.dumps(result.rows)

    def test_different_seed_different_rows(self, result):
        other = e17.run(fast=True, seed=43, measure=8000.0, iters=3,
                        jobs=1)
        assert json.dumps(other.rows) != json.dumps(result.rows)


POP = "net.population.10.0.9.1."


def _tiny_points(n):
    """The first *n* E17 points at tiny windows and one bisection step."""
    return e17.sweep_points(fast=True, seed=42, measure=1000.0,
                            iters=1)[:n]


class TestTrialTelemetry:
    """A point's snapshot is the merge of all its trials (DESIGN.md §4.9),
    not the last trial's population instruments."""

    def test_point_counts_sum_over_trials(self, monkeypatch):
        real = e17.TRIALS["memcached"]
        per_trial = []

        def counted(*args):
            out = real(*args)
            reg = telemetry.registry()
            per_trial.append((reg.get(POP + "offered").snapshot()["count"],
                              reg.get(POP + "responses").snapshot()["count"]))
            return out

        monkeypatch.setitem(e17.TRIALS, "memcached", counted)
        with telemetry.scope() as reg:
            sweep.run_points(_tiny_points(1), jobs=1)
            snap = reg.snapshot()
        assert len(per_trial) >= 2
        assert snap[POP + "offered"]["count"] == sum(
            o for o, _ in per_trial)
        assert snap[POP + "responses"]["count"] == sum(
            r for _, r in per_trial)

    def test_metric_snapshots_identical_across_jobs(self):
        """Worker and inline points merge their trial scopes with the
        same arithmetic; only host wall-clock may differ."""
        def metrics(jobs):
            with telemetry.scope() as reg:
                sweep.run_points(_tiny_points(2), jobs=jobs)
                snap = reg.snapshot()
            snap.pop("sim.kernel.wall_seconds", None)
            return snap

        serial = metrics(1)
        assert POP + "latency" in serial
        assert metrics(2) == serial


class TestPointFreesTrials:
    def test_trial_testbeds_dead_when_the_call_returns(self, monkeypatch):
        built = []
        real = e17.Testbed

        def tracked(*args, **kwargs):
            tb = real(*args, **kwargs)
            built.append(weakref.ref(tb.env))
            return tb

        monkeypatch.setattr(e17, "Testbed", tracked)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            # One memcached/host-centric bisection through the sweep
            # executor: the point's collector boundary frees every
            # trial's testbed.
            outcome, = sweep.run_points(_tiny_points(1), jobs=1)
            assert len(outcome["trials"]) >= 2
            assert len(built) >= 2
            assert [ref() for ref in built] == [None] * len(built)
        finally:
            if was_enabled:
                gc.enable()
