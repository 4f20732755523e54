"""Tracing utilities and units helpers."""

import warnings

import pytest

from repro import units
from repro.sim import Environment, NullTracer, Tracer


class TestTracer:
    def test_disabled_by_default(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.emit("nic", "rx")
        assert tracer.records == []

    def test_records_when_enabled(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        tracer.emit("nic", "rx", detail="64B")
        env.run(until=5)
        tracer.emit("gpu", "launch")
        assert len(tracer.records) == 2
        assert tracer.records[1][0] == 5

    def test_record_schema_carries_msg_id(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        tracer.emit("wire->10.0.0.1", "deliver", 17, "udp")
        when, channel, event, msg_id, detail = tracer.records[0]
        assert when == 0.0
        assert channel == "wire->10.0.0.1"
        assert event == "deliver"
        assert msg_id == 17
        assert detail == "udp"

    def test_filter(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        tracer.emit("nic", "rx")
        tracer.emit("nic", "tx")
        tracer.emit("gpu", "rx")
        assert len(tracer.filter(channel="nic")) == 2
        assert len(tracer.filter(event="rx")) == 2
        assert len(tracer.filter(channel="gpu", event="rx")) == 1
        assert len(tracer.filter(contains="n")) == 2

    def test_limit_counts_drops(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        tracer.limit = 2
        for _ in range(5):
            tracer.emit("c", "e")
        assert len(tracer.records) == 2
        assert tracer.dropped == 3

    def test_format_warns_once_on_overflow(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        tracer.limit = 1
        tracer.emit("c", "e")
        tracer.emit("c", "e")
        with pytest.warns(RuntimeWarning, match="dropped 1 records"):
            out = tracer.format()
        assert "1 records dropped" in out
        # The warning fires only once; the overflow line stays.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert "records dropped" in tracer.format()

    def test_format(self):
        env = Environment()
        tracer = Tracer(env, enabled=True)
        tracer.emit("nic", "rx", 7, "abc")
        assert "nic" in tracer.format()
        assert "abc" in tracer.format()
        assert "7" in tracer.format()

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        tracer.emit("x", "y")
        assert tracer.filter() == []
        assert not tracer.enabled
        assert tracer.dropped == 0


class TestUnits:
    def test_time_constants(self):
        assert units.MS == 1000 * units.US
        assert units.SEC == 1000 * units.MS
        assert units.NS == units.US / 1000

    def test_gbps(self):
        # 8 Gb/s == 1 GB/s == 1000 bytes/us
        assert units.gbps(8) == pytest.approx(1000.0)

    def test_gbytes_per_sec(self):
        assert units.gbytes_per_sec(1) == pytest.approx(1000.0)

    def test_mpps(self):
        assert units.mpps(1) == pytest.approx(1.0)
