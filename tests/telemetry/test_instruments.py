"""Instrument protocol: kind / snapshot / merge."""

import math

import pytest

from repro.telemetry import (
    Counter,
    DerivedRatio,
    LogHistogram,
    PeakGauge,
    PullCounter,
    PullPeak,
    RateStat,
    RatioHolder,
    TimeWeightedGauge,
    materialize,
)


class TestCounter:
    def test_inc_and_snapshot(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"kind": "counter", "value": 5}

    def test_merge_adds(self):
        c = Counter()
        c.inc(2)
        c.merge({"kind": "counter", "value": 40})
        assert c.value == 42


class TestPeakGauge:
    def test_tracks_max(self):
        p = PeakGauge()
        p.record(3)
        p.record(7)
        p.record(5)
        assert p.snapshot() == {"kind": "peak", "value": 7}

    def test_merge_takes_max(self):
        p = PeakGauge()
        p.record(7)
        p.merge({"kind": "peak", "value": 5})
        assert p.value == 7
        p.merge({"kind": "peak", "value": 11})
        assert p.value == 11


class TestPullInstruments:
    def test_pull_counter_reads_live_state(self):
        state = {"hits": 0}
        c = PullCounter(lambda: state["hits"])
        state["hits"] = 7
        assert c.value == 7
        assert c.snapshot()["value"] == 7

    def test_merge_accumulates_on_top_of_live(self):
        state = {"hits": 1}
        c = PullCounter(lambda: state["hits"])
        c.merge({"kind": "counter", "value": 100})
        assert c.value == 101

    def test_pull_peak_max_of_live_and_merged(self):
        state = {"depth": 3}
        p = PullPeak(lambda: state["depth"])
        assert p.value == 3
        p.merge({"kind": "peak", "value": 8})
        assert p.value == 8
        state["depth"] = 12
        assert p.value == 12


class TestTimeWeightedGauge:
    def fake_clock(self):
        clock = {"now": 0.0}
        return clock, (lambda: clock["now"])

    def test_mean_weighs_by_time(self):
        clock, tick = self.fake_clock()
        g = TimeWeightedGauge(clock=tick)
        g.set(10)
        clock["now"] = 4.0
        g.set(0)
        clock["now"] = 8.0
        assert g.mean() == pytest.approx(5.0)
        assert g.max() == 10

    def test_merge_combines_windows(self):
        clock, tick = self.fake_clock()
        g = TimeWeightedGauge(clock=tick)
        g.set(4)
        clock["now"] = 10.0  # local: area 40 over 10
        g.merge({"kind": "gauge", "area": 60.0, "elapsed": 10.0, "max": 6})
        assert g.mean() == pytest.approx(5.0)  # (40 + 60) / (10 + 10)
        assert g.snapshot()["max"] == 6


class TestRateStat:
    def test_rate_math(self):
        r = RateStat()
        r.merge({"kind": "rate", "count": 50, "elapsed": 100.0})
        assert r.per_us() == pytest.approx(0.5)
        assert r.per_sec() == pytest.approx(0.5e6)

    def test_zero_window_is_nan(self):
        assert math.isnan(RateStat().per_us())

    def test_merge_pools_windows(self):
        r = RateStat()
        r.merge({"kind": "rate", "count": 10, "elapsed": 10.0})
        r.merge({"kind": "rate", "count": 30, "elapsed": 10.0})
        assert r.per_us() == pytest.approx(2.0)


class TestMaterialize:
    def test_round_trips_every_kind(self):
        hist = LogHistogram()
        hist.record(3.0)
        gauge = TimeWeightedGauge()
        gauge.merge({"kind": "gauge", "area": 5.0, "elapsed": 2.0, "max": 4})
        counter, peak, rate = Counter(), PeakGauge(), RateStat()
        counter.inc(7)
        peak.record(3)
        rate.count, rate.elapsed = 4, 2.0
        for inst in (counter, peak, hist, gauge, rate):
            snap = inst.snapshot()
            clone = materialize(snap)
            assert clone.snapshot() == snap

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            materialize({"kind": "sparkline"})


class TestDerivedRatio:
    def test_recomputes_from_live_operands(self):
        num, den = Counter(), Counter()
        r = DerivedRatio(lambda: num.value, lambda: den.value,
                         operands=("a.events", "a.requests"))
        num.inc(12)
        den.inc(4)
        assert r.value == 3.0
        num.inc(6)
        assert r.value == 4.5

    def test_zero_denominator_reports_zero(self):
        r = DerivedRatio(lambda: 7, lambda: 0)
        assert r.value == 0.0

    def test_snapshot_carries_operand_names(self):
        r = DerivedRatio(lambda: 6, lambda: 2,
                         operands=("a.events", "a.requests"))
        assert r.snapshot() == {"kind": "ratio", "value": 3.0,
                                "num": "a.events", "den": "a.requests"}

    def test_merge_is_a_noop(self):
        # Merged ratios are not sums of ratios; the registry re-derives
        # from the merged operand counters instead.
        num = Counter()
        num.inc(6)
        r = DerivedRatio(lambda: num.value, lambda: 2)
        r.merge({"kind": "ratio", "value": 99.0})
        assert r.value == 3.0


class TestRatioHolder:
    def test_latest_reading_wins(self):
        h = RatioHolder()
        h.merge({"kind": "ratio", "value": 3.0})
        h.merge({"kind": "ratio", "value": 5.5})
        assert h.value == 5.5

    def test_materialized_from_snapshot_without_operands(self):
        h = materialize({"kind": "ratio", "value": 2.5})
        assert isinstance(h, RatioHolder)
        assert h.value == 2.5
