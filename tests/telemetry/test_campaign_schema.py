"""The ``repro.campaign/1`` document schema (repro/telemetry/export.py)."""

import json

import pytest

from repro.telemetry import (CAMPAIGN_SCHEMA, dump_campaign, dumps_campaign,
                             load_campaign)


def _entry(exp_id="ABL-X"):
    return {
        "exp_id": exp_id,
        "slug": "toy_study",
        "title": "toy",
        "paper_ref": "test",
        "seed": 42,
        "fast": True,
        "metric": "krps",
        "higher_is_better": True,
        "baseline": "on",
        "variants": [
            {"token": "on", "run_id": "a" * 12,
             "assignment": {"k": "on"}, "baseline": True,
             "row": {"krps": 3.5}, "score": 3.5},
            {"token": "off", "run_id": "b" * 12,
             "assignment": {"k": "off"}, "baseline": False,
             "row": {"krps": 2.5}, "score": 2.5},
        ],
        "importance": [
            {"component": "c", "knob": "k", "baseline": "'on'",
             "variants": ["off"], "scores": {"off": 2.5},
             "importance": 0.2857, "harmful": False,
             "signals": {"goodput": -0.3, "p99_us": None,
                         "kernel_events": -0.1, "core_burn": None}},
        ],
        "notes": ["a note"],
    }


class TestRoundTrip:
    def test_dump_and_load(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        dump_campaign([_entry()], path, meta={"seed": 42})
        doc = load_campaign(path)
        assert doc["schema"] == CAMPAIGN_SCHEMA
        assert doc["meta"] == {"seed": 42}
        assert doc["campaigns"] == [_entry()]

    def test_dumps_is_valid_json_with_schema_first(self):
        text = dumps_campaign([_entry()])
        doc = json.loads(text)
        assert list(doc)[0] == "schema"
        assert doc["schema"] == "repro.campaign/1"

    def test_load_accepts_file_object(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(dumps_campaign([_entry()]))
        with open(str(path)) as fh:
            doc = load_campaign(fh)
        assert doc["campaigns"][0]["exp_id"] == "ABL-X"


class TestValidation:
    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.telemetry/1",
                                    "campaigns": []}))
        with pytest.raises(ValueError):
            load_campaign(str(path))

    def test_missing_campaigns_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": CAMPAIGN_SCHEMA}))
        with pytest.raises(ValueError):
            load_campaign(str(path))

    def test_entry_missing_fields_rejected(self, tmp_path):
        entry = _entry()
        del entry["importance"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": CAMPAIGN_SCHEMA,
                                    "campaigns": [entry]}))
        with pytest.raises(ValueError) as err:
            load_campaign(str(path))
        assert "importance" in str(err.value)

    def test_engine_documents_load_back(self, tmp_path):
        # the real producer: a CampaignOutcome document must satisfy the
        # loader's schema checks
        from repro import telemetry
        from repro.experiments.ablations import coalescing_study

        with telemetry.scope():
            outcome = coalescing_study.run(fast=True, seed=42)
        path = str(tmp_path / "campaign.json")
        dump_campaign([outcome.to_doc()], path)
        doc = load_campaign(path)
        assert doc["campaigns"][0]["exp_id"] == "ABL-CO"
