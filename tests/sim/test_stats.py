"""Measurement instruments."""

import math

import numpy as np
import pytest

from repro.sim import Environment, LatencyRecorder, RateMeter, TimeWeightedGauge


@pytest.fixture
def env():
    return Environment()


class TestLatencyRecorder:
    def test_percentiles_match_numpy(self, env):
        rec = LatencyRecorder(env)
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for v in values:
            rec.record(v)
        assert rec.p50() == pytest.approx(np.percentile(values, 50))
        assert rec.p99() == pytest.approx(np.percentile(values, 99))
        assert rec.mean() == pytest.approx(np.mean(values))
        assert rec.min() == 1.0 and rec.max() == 9.0

    def test_empty_recorder_is_nan(self, env):
        rec = LatencyRecorder(env)
        assert math.isnan(rec.p50())
        assert math.isnan(rec.mean())

    def test_reset_discards_warmup(self, env):
        rec = LatencyRecorder(env)
        rec.record(1000.0)
        rec.reset()
        rec.record(2.0)
        assert rec.count == 1
        assert rec.p50() == 2.0

    def test_summary_keys(self, env):
        rec = LatencyRecorder(env)
        rec.record(1.0)
        summary = rec.summary()
        assert set(summary) == {"count", "mean", "p50", "p90", "p99",
                                "min", "max"}

    def test_record_many_matches_repeated_record(self, env):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0]
        one = LatencyRecorder(env)
        for v in values:
            one.record(v)
        many = LatencyRecorder(env)
        many.record_many(np.array(values))
        assert many._samples == one._samples
        assert many.p99() == one.p99()
        assert many.snapshot() == one.snapshot()

    def test_record_many_respects_warmup_cut(self, env):
        rec = LatencyRecorder(env)
        rec.reset(at_time=10.0)
        rec.record_many([1.0, 2.0])   # env.now == 0 < start: dropped
        assert rec.count == 0

    def test_record_many_empty(self, env):
        rec = LatencyRecorder(env)
        rec.record_many([])
        assert rec.count == 0

    def test_start_argument_drops_warmup_samples(self, env):
        # The docstring-promised warmup cut: samples recorded while
        # env.now < start never enter the recorder.
        rec = LatencyRecorder(env)
        rec.reset(at_time=10.0)

        def proc(env):
            rec.record(999.0)          # t=0: warmup, dropped
            yield env.timeout(10)
            rec.record(5.0)            # t=10: measured

        env.process(proc(env))
        env.run()
        assert rec.count == 1
        assert rec.p50() == 5.0

    def test_reset_at_time_installs_new_cut(self, env):
        rec = LatencyRecorder(env)
        rec.record(999.0)
        rec.reset(at_time=20.0)        # cut ahead of the clock (t=0)
        rec.record(888.0)              # still warmup: env.now < 20
        assert rec.count == 0
        assert rec.start == 20.0

    def test_snapshot_is_mergeable_histogram(self, env):
        rec = LatencyRecorder(env)
        rec.record(100.0)
        snap = rec.snapshot()
        assert snap["kind"] == "histogram" and snap["count"] == 1
        other = LatencyRecorder(env)
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

    def test_reset_at_time_backdates_window(self, env):
        meter = RateMeter(env)
        meter.tick(100)
        env.run(until=10)
        meter.reset(at_time=5.0)       # warmup cut at t=5, reset at t=10
        env.run(until=25)
        meter.tick(10)
        assert meter.per_us() == pytest.approx(10 / 20.0)


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

    def test_reset(self, env):
        gauge = TimeWeightedGauge(env)
        gauge.set(100)
        env.run(until=5)
        gauge.reset()
        env.run(until=10)
        assert gauge.mean() == pytest.approx(100)
        assert gauge.max() == 100

    def test_reset_at_time_backdates_window(self, env):
        gauge = TimeWeightedGauge(env)
        gauge.set(100)
        env.run(until=8)
        gauge.reset(at_time=4.0)
        env.run(until=12)
        snap = gauge.snapshot()
        assert snap["elapsed"] == pytest.approx(8.0)
        assert gauge.mean() == pytest.approx(100.0)
