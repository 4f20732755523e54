"""Fault-schedule grammar: validation and the dict round trip."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    AcceleratorOutage,
    FaultSchedule,
    LinkCorruption,
    LinkLoss,
    RxRingStall,
    SnicPause,
    SnicRestart,
)


class TestSpecValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(FaultError, match="start"):
            SnicPause(start=-1.0, duration=10.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(FaultError, match="duration"):
            SnicPause(start=0.0, duration=0.0)

    def test_non_numeric_window_rejected(self):
        with pytest.raises(FaultError):
            SnicPause(start="soon", duration=10.0)

    def test_loss_needs_probability_in_unit_interval(self):
        for bad in (0.0, -0.5, 1.5, None, "p"):
            with pytest.raises(FaultError, match="probability"):
                LinkLoss("10.0.0.1", start=0, duration=10, probability=bad)
        # 1.0 is inclusive: "drop everything" is a valid burst
        LinkLoss("10.0.0.1", start=0, duration=10, probability=1.0)

    def test_wire_fault_needs_ip(self):
        with pytest.raises(FaultError, match="ip"):
            LinkLoss(None, start=0, duration=10, probability=0.5)

    def test_outage_mode_validated(self):
        with pytest.raises(FaultError, match="mode"):
            AcceleratorOutage(start=0, duration=10, mode="flaky")

    def test_outage_kind_tracks_mode(self):
        assert AcceleratorOutage(0, 10, mode="crash").kind == "accel_crash"
        assert AcceleratorOutage(0, 10, mode="hang").kind == "accel_hang"

    def test_window_end(self):
        spec = SnicPause(start=100.0, duration=25.0)
        assert spec.end == 125.0


class TestSchedule:
    def _schedule(self):
        return FaultSchedule([
            LinkLoss("10.0.0.100", start=1000, duration=500,
                     probability=0.25),
            LinkCorruption("10.0.0.100", start=2000, duration=100,
                           probability=0.1),
            RxRingStall("10.0.0.100", start=3000, duration=200),
            SnicPause(start=4000, duration=300),
            SnicRestart(start=5000, duration=300),
            AcceleratorOutage(start=6000, duration=1000, mode="hang"),
        ])

    def test_horizon(self):
        assert self._schedule().horizon == 7000.0
        assert FaultSchedule().horizon == 0.0

    def test_empty_schedule_is_valid_but_falsy(self):
        schedule = FaultSchedule()
        assert not schedule
        assert len(schedule) == 0
        assert self._schedule()

    def test_add_chains_and_rejects_non_specs(self):
        schedule = FaultSchedule().add(SnicPause(0, 1)).add(SnicPause(2, 1))
        assert len(schedule) == 2
        with pytest.raises(FaultError, match="FaultSpec"):
            schedule.add({"fault": "snic_pause"})
