"""Snapshot diffing (repro/telemetry/diff.py)."""

import pytest

from repro.telemetry import LogHistogram, relative_delta, scalar_of


def _hist_snap(values):
    hist = LogHistogram()
    for v in values:
        hist.record(v)
    return hist.snapshot()


class TestScalarOf:
    def test_counter_and_peak(self):
        assert scalar_of({"kind": "counter", "value": 7}) == 7
        assert scalar_of({"kind": "peak", "value": 3}) == 3

    def test_rate_uses_count(self):
        assert scalar_of({"kind": "rate", "count": 9,
                          "elapsed": 100.0}) == 9

    def test_gauge_time_weighted_mean(self):
        snap = {"kind": "gauge", "area": 50.0, "elapsed": 100.0, "max": 2.0}
        assert scalar_of(snap) == pytest.approx(0.5)
        assert scalar_of({"kind": "gauge", "area": 1.0, "elapsed": 0.0,
                          "max": 0.0}) == 0.0

    def test_histogram_p99(self):
        snap = _hist_snap([10.0] * 99 + [1000.0])
        hist = LogHistogram()
        hist.merge(snap)
        assert scalar_of(snap) == pytest.approx(hist.p99())

    def test_empty_histogram_zero(self):
        assert scalar_of(_hist_snap([])) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            scalar_of({"kind": "mystery"})


class TestRelativeDelta:
    def test_basic(self):
        assert relative_delta(100.0, 110.0) == pytest.approx(0.10)
        assert relative_delta(100.0, 90.0) == pytest.approx(-0.10)
        assert relative_delta(-100.0, -90.0) == pytest.approx(0.10)

    def test_undefined_cases_none(self):
        assert relative_delta(0, 5) is None
        assert relative_delta(float("nan"), 5) is None
        assert relative_delta(5, float("nan")) is None
        assert relative_delta(None, 5) is None
        assert relative_delta("x", 5) is None
