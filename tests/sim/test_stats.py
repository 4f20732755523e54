"""Measurement instruments."""

import math

import numpy as np
import pytest

from repro.sim import Environment, LatencyRecorder, RateMeter, TimeWeightedGauge


@pytest.fixture
def env():
    return Environment()


class TestLatencyRecorder:
    def test_percentiles_match_numpy(self):
        rec = LatencyRecorder()
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for v in values:
            rec.record(v)
        assert rec.p50() == pytest.approx(np.percentile(values, 50))
        assert rec.p99() == pytest.approx(np.percentile(values, 99))
        assert rec.mean() == pytest.approx(np.mean(values))
        assert rec.min() == 1.0 and rec.max() == 9.0

    def test_empty_recorder_is_nan(self):
        rec = LatencyRecorder()
        assert math.isnan(rec.p50())
        assert math.isnan(rec.mean())

    def test_reset_discards_warmup(self):
        rec = LatencyRecorder()
        rec.record(1000.0)
        rec.reset()
        rec.record(2.0)
        assert rec.count == 1
        assert rec.p50() == 2.0

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        summary = rec.summary()
        assert set(summary) == {"count", "mean", "p50", "p90", "p99",
                                "min", "max"}

    def test_snapshot_is_mergeable_histogram(self):
        rec = LatencyRecorder()
        rec.record(100.0)
        snap = rec.snapshot()
        assert snap["kind"] == "histogram" and snap["count"] == 1
        other = LatencyRecorder()
        other.record(200.0)
        other.merge(snap)
        merged = other.snapshot()
        assert merged["count"] == 2
        # exact local stats are unaffected by foreign merges
        assert other.count == 1 and other.p50() == 200.0


class TestRateMeter:
    def test_rate_over_elapsed_time(self, env):
        meter = RateMeter(env)

        def proc(env):
            for _ in range(10):
                yield env.timeout(2)
                meter.tick()

        env.process(proc(env))
        env.run()  # drains at t=20, after the final tick
        assert meter.per_us() == pytest.approx(0.5)
        assert meter.per_sec() == pytest.approx(0.5e6)

    def test_reset_restarts_window(self, env):
        meter = RateMeter(env)
        meter.tick(100)
        env.run(until=10)
        meter.reset()
        env.run(until=20)
        meter.tick(5)
        assert meter.per_us() == pytest.approx(0.5)

    def test_zero_elapsed_is_nan(self, env):
        meter = RateMeter(env)
        assert math.isnan(meter.per_us())


class TestTimeWeightedGauge:
    def test_mean_weighs_by_time(self, env):
        gauge = TimeWeightedGauge(env)

        def proc(env):
            gauge.set(10)
            yield env.timeout(4)
            gauge.set(0)

        env.process(proc(env))
        env.run(until=8)
        assert gauge.mean() == pytest.approx(5.0)

    def test_max_tracked(self, env):
        gauge = TimeWeightedGauge(env)
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        assert gauge.max() == 7
