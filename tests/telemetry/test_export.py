"""Export surface: pretty tables, the JSON schema, and the CLI shim."""

import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    SCHEMA,
    dump_metrics,
    dumps_metrics,
    format_snapshot,
    load_metrics,
)


def sample_snapshot():
    reg = MetricsRegistry()
    reg.counter("sim.kernel.events_processed").inc(1234)
    reg.peak("mqueue.q0.depth").record(17)
    reg.histogram("net.client.10.0.9.1.latency").record(250.0)
    return reg.snapshot()


class TestJsonSchema:
    def test_round_trip_preserves_snapshot(self, tmp_path):
        snap = sample_snapshot()
        path = tmp_path / "metrics.json"
        dump_metrics(snap, str(path))
        assert load_metrics(str(path)) == snap

    def test_dumps_carries_schema_tag(self):
        blob = json.loads(dumps_metrics(sample_snapshot()))
        assert blob["schema"] == SCHEMA
        assert "metrics" in blob

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "somebody-else/9",
                                    "metrics": {}}))
        with pytest.raises(ValueError):
            load_metrics(str(path))

    def test_schemaless_blob_rejected(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError):
            load_metrics(str(path))


class TestFormatting:
    def test_format_snapshot_lists_every_name(self):
        text = format_snapshot(sample_snapshot())
        assert "sim.kernel.events_processed" in text
        assert "mqueue.q0.depth" in text
        assert "net.client.10.0.9.1.latency" in text
        assert "1,234" in text or "1234" in text

    def test_format_snapshot_prefix_filter(self):
        text = format_snapshot(sample_snapshot(), prefix="mqueue")
        assert "mqueue.q0.depth" in text
        assert "sim.kernel" not in text
