"""The declarative campaign engine (repro/experiments/campaign.py)."""

import json

import pytest

from repro import telemetry
from repro.config import DEFAULT_CONFIG
from repro.errors import ConfigError
from repro.experiments import campaign as campaign_mod
from repro.experiments.campaign import (
    CAMPAIGNS, Campaign, Component, Knob, find_campaign, run_id_for,
    snapshot_signals)
from repro.telemetry.instruments import RateStat


# ---------------------------------------------------------------------------
# toy scenario (module-level: campaign points must resolve by module)
# ---------------------------------------------------------------------------

def _toy_scenario(boost=True, seed=42, config=None, extra=0.0):
    """Deterministic arithmetic + a few instruments; no simulation."""
    value = (seed % 97) / 10.0 + (10.0 if boost else 5.0) + extra
    if config is not None:
        value += config.lynx.ring_entries / 1000.0
    reg = telemetry.registry()
    reg.counter("sim.kernel.events_processed").inc(int(value * 10))
    rate = RateStat()
    rate.count, rate.elapsed = int(value * 100), 1000.0
    reg.register("net.client.10.0.9.1.responses", rate)
    reg.histogram("net.client.10.0.9.1.latency").record(
        100.0 if boost else 150.0)
    return value


def _toy_campaign(exp_id, **overrides):
    spec = dict(
        scenario=_toy_scenario,
        slug="toy",
        components=[Component(
            "booster",
            [Knob("boost", values=(True, False), baseline=True,
                  kwarg="boost")])],
        row=lambda ctx, variant, value: {
            "boost": variant.assignment["boost"], "value": value},
        metric="value",
    )
    spec.update(overrides)
    return Campaign(exp_id, "toy", "test", **spec)


class TestKnob:
    def test_requires_exactly_one_target(self):
        with pytest.raises(ConfigError):
            Knob("k", values=(1, 2))
        with pytest.raises(ConfigError):
            Knob("k", values=(1, 2), kwarg="a", config="lynx.ring_entries")

    def test_config_path_validated_at_declaration(self):
        Knob("ok", values=(1, 2), config="lynx.ring_entries")
        Knob("ok2", values=("connectx", "roce"), config="rdma.name")
        with pytest.raises(ConfigError):
            Knob("bad", values=(1, 2), config="lynx.no_such_field")
        with pytest.raises(ConfigError):
            Knob("bad", values=(1, 2), config="nope.ring_entries")

    def test_needs_two_values(self):
        knob = Knob("k", values=(1,), kwarg="a")
        with pytest.raises(ConfigError):
            knob.values()

    def test_baseline_must_be_a_value(self):
        knob = Knob("k", values=(1, 2), baseline=3, kwarg="a")
        with pytest.raises(ConfigError):
            knob.baseline()

    def test_values_callable_of_fast(self):
        knob = Knob("k", values=lambda fast: (1, 2) if fast else (1, 2, 3),
                    kwarg="a")
        assert knob.values(fast=True) == (1, 2)
        assert knob.values(fast=False) == (1, 2, 3)
        assert knob.baseline(fast=False) == 1


class TestGrid:
    def test_single_knob_enumerates_values_in_order(self):
        camp = _toy_campaign("TOY-GRID1")
        variants = camp.variants(fast=True)
        assert [v.token for v in variants] == [True, False]
        assert variants[0].is_baseline and not variants[1].is_baseline
        assert variants[1].changed == ("boost",)

    def test_multi_knob_baseline_first_then_one_off(self):
        camp = Campaign(
            "TOY-GRID2", "toy", "test", scenario=_toy_scenario,
            components=[
                Component("a", [Knob("boost", values=(True, False),
                                     kwarg="boost")]),
                Component("b", [Knob("extra", values=(0.0, 1.0, 2.0),
                                     kwarg="extra")]),
            ])
        variants = camp.variants(fast=True)
        assert [v.token for v in variants] == \
            ["baseline", "boost=False", "extra=1.0", "extra=2.0"]
        assert variants[0].is_baseline
        assert variants[1].changed == ("boost",)

    def test_duplicate_knob_names_rejected(self):
        with pytest.raises(ConfigError):
            Campaign(
                "TOY-DUP", "toy", "test", scenario=_toy_scenario,
                components=[
                    Component("a", [Knob("k", values=(1, 2), kwarg="a")]),
                    Component("b", [Knob("k", values=(3, 4), kwarg="b")]),
                ])


class TestRunIds:
    def test_stable_and_short(self):
        a = run_id_for("ABL-X", {"k": 1, "j": "on"}, 42)
        b = run_id_for("ABL-X", {"j": "on", "k": 1}, 42)
        assert a == b  # canonicalized by knob name
        assert len(a) == 12 and int(a, 16) >= 0

    def test_varies_with_assignment_and_seed(self):
        base = run_id_for("ABL-X", {"k": 1}, 42)
        assert run_id_for("ABL-X", {"k": 2}, 42) != base
        assert run_id_for("ABL-X", {"k": 1}, 43) != base
        assert run_id_for("ABL-Y", {"k": 1}, 42) != base

    def test_run_stamps_every_variant(self):
        camp = _toy_campaign("TOY-IDS")
        with telemetry.scope():
            outcome = camp.run(fast=True, seed=7)
        ids = [v.run_id for v in outcome.variants]
        assert len(set(ids)) == len(ids)
        assert all(len(i) == 12 for i in ids)


class TestConfigKnobs:
    def test_config_applied_to_scenario(self):
        camp = Campaign(
            "TOY-CFG", "toy", "test", scenario=_toy_scenario,
            components=[Component(
                "mqueue",
                [Knob("mqueue.ring_entries", values=(64, 256), baseline=64,
                      config="lynx.ring_entries")])],
            metric=None)
        variants = camp.variants(fast=True)
        kwargs = camp.scenario_kwargs(True, variants[1])
        assert kwargs["config"].lynx.ring_entries == 256
        # everything else stays at the defaults
        assert kwargs["config"].lynx.coalesce_metadata \
            == DEFAULT_CONFIG.lynx.coalesce_metadata

    def test_baseline_config_equals_default(self):
        camp = CAMPAIGNS["TOY-CFG"]
        kwargs = camp.scenario_kwargs(True, camp.variants(True)[0])
        assert kwargs["config"] == DEFAULT_CONFIG.with_(
            lynx=DEFAULT_CONFIG.lynx)

    def test_string_config_knob(self):
        camp = Campaign(
            "TOY-RNIC", "toy", "test", scenario=_toy_scenario,
            components=[Component(
                "rnic",
                [Knob("rdma.name", values=("connectx", "roce"),
                      baseline="connectx", config="rdma.name")])])
        variants = camp.variants(fast=True)
        configs = [camp.scenario_kwargs(True, v)["config"] for v in variants]
        assert [c.rdma.name for c in configs] == ["connectx", "roce"]


class TestImportance:
    def test_helpful_component_positive(self):
        # baseline boost=True scores ~10.x, ablated ~5.x: the component
        # helps, importance is positive, not harmful.
        camp = _toy_campaign("TOY-IMP1")
        with telemetry.scope():
            outcome = camp.run(fast=True, seed=42)
        (entry,) = outcome.importance
        assert entry["component"] == "booster"
        assert entry["knob"] == "boost"
        base, off = outcome.values
        expected = -(off - base) / abs(base)
        assert entry["importance"] == pytest.approx(expected)
        assert entry["importance"] > 0 and not entry["harmful"]

    def test_harmful_component_flagged(self):
        # flip the baseline: now the ablation (boost=True) improves the
        # metric, so the baseline setting is harmful.
        camp = Campaign(
            "TOY-IMP2", "toy", "test", scenario=_toy_scenario,
            components=[Component(
                "booster",
                [Knob("boost", values=(False, True), baseline=False,
                      kwarg="boost")])],
            row=lambda ctx, v, value: {"value": value},
            metric="value")
        with telemetry.scope():
            outcome = camp.run(fast=True, seed=42)
        (entry,) = outcome.importance
        assert entry["importance"] < 0 and entry["harmful"]

    def test_lower_is_better_flips_sign(self):
        camp = Campaign(
            "TOY-IMP3", "toy", "test", scenario=_toy_scenario,
            components=[Component(
                "booster",
                [Knob("boost", values=(True, False), baseline=True,
                      kwarg="boost")])],
            row=lambda ctx, v, value: {"value": value},
            metric="value", higher_is_better=False)
        with telemetry.scope():
            outcome = camp.run(fast=True, seed=42)
        (entry,) = outcome.importance
        # the ablation lowers the metric; with lower-is-better that
        # means the ablation wins -> negative importance, harmful.
        assert entry["importance"] < 0 and entry["harmful"]

    def test_signals_from_snapshot_deltas(self):
        camp = _toy_campaign("TOY-IMP4")
        with telemetry.scope():
            outcome = camp.run(fast=True, seed=42)
        (entry,) = outcome.importance
        signals = entry["signals"]
        # boost=False emits fewer responses/events and higher latency
        assert signals["goodput"] < 0
        assert signals["kernel_events"] < 0
        assert signals["p99_us"] > 0
        assert signals["core_burn"] is None  # toy has no gauges

class TestSnapshotSignals:
    def test_empty_snapshot_all_none(self):
        signals = snapshot_signals({})
        assert signals == {"goodput": None, "p99_us": None,
                           "kernel_events": None, "core_burn": None}

    def test_gauge_means_summed_as_core_burn(self):
        snap = {
            "cpu.host.utilization": {"kind": "gauge", "area": 500.0,
                                     "elapsed": 1000.0, "max": 1.0},
            "cpu.snic.utilization": {"kind": "gauge", "area": 250.0,
                                     "elapsed": 1000.0, "max": 0.5},
        }
        assert snapshot_signals(snap)["core_burn"] == pytest.approx(0.75)

    def test_client_rates_summed_as_goodput(self):
        snap = {
            "net.client.10.0.9.1.responses":
                {"kind": "rate", "count": 100, "elapsed": 1000.0},
            "net.client.10.0.9.2.responses":
                {"kind": "rate", "count": 300, "elapsed": 1000.0},
            "net.server.responses":  # not a client rate
                {"kind": "rate", "count": 999, "elapsed": 1000.0},
        }
        assert snapshot_signals(snap)["goodput"] == pytest.approx(4e5)

    def test_population_counts_as_a_client_plane(self):
        latency = telemetry.LogHistogram()
        latency.record(100.0)
        snap = {
            "net.population.10.0.9.1.responses":
                {"kind": "rate", "count": 200, "elapsed": 1000.0},
            "net.population.10.0.9.1.latency": latency.snapshot(),
        }
        signals = snapshot_signals(snap)
        assert signals["goodput"] == pytest.approx(2e5)
        assert signals["p99_us"] == latency.p99()


class TestRegistryAndRunners:
    def test_campaigns_register_and_find(self):
        camp = _toy_campaign("TOY-REG")
        assert CAMPAIGNS["TOY-REG"] is camp
        assert find_campaign("TOY-REG") is camp
        with pytest.raises(ConfigError):
            find_campaign("TOY-NO-SUCH")

    def test_call_returns_experiment_result_with_outcome(self):
        camp = _toy_campaign("TOY-CALL")
        with telemetry.scope():
            result = camp(fast=True, seed=42)
        assert result.exp_id == "TOY-CALL"
        assert len(result.rows) == 2
        assert result.campaign.rows is result.rows \
            or result.campaign.rows == result.rows

    def test_describe_lists_every_campaign(self):
        camp = _toy_campaign("TOY-DESC", summary="a toy study")
        text = campaign_mod.describe([camp])
        assert "TOY-DESC" in text and "a toy study" in text
        assert "``boost``" in text


class TestJobsForwarding:
    def test_campaign_call_forwards_jobs(self, monkeypatch):
        camp = _toy_campaign("TOY-JOBS2")
        seen = []
        real = campaign_mod.run_points

        def spy(points, jobs=None):
            seen.append(jobs)
            return real(points, jobs=jobs)

        monkeypatch.setattr(campaign_mod, "run_points", spy)
        with telemetry.scope():
            camp(fast=True, seed=42, jobs=2)
        assert seen == [2]


class TestToDoc:
    def test_doc_shape_round_trips_through_json(self):
        camp = _toy_campaign("TOY-DOC")
        with telemetry.scope():
            outcome = camp.run(fast=True, seed=42)
        doc = json.loads(json.dumps(outcome.to_doc()))
        assert doc["exp_id"] == "TOY-DOC"
        assert doc["metric"] == "value"
        assert doc["baseline"] == "True"
        assert [v["baseline"] for v in doc["variants"]] == [True, False]
        assert all(len(v["run_id"]) == 12 for v in doc["variants"])
        assert doc["importance"][0]["component"] == "booster"
        scores = [v["score"] for v in doc["variants"]]
        assert scores == [v["row"]["value"] for v in doc["variants"]]
