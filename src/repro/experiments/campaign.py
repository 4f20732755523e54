"""Declarative ablation campaigns (DESIGN.md §4.12).

An ablation used to be a hand-written module: build the grid, derive
seeds, fan out, format rows — ~60 lines of boilerplate per design
question.  This engine turns a study into a *declaration*: components
register named knobs (on/off or variant) against the simulator's
config surface, a :class:`Campaign` spec auto-generates the grid as
sweep :class:`~.sweep.Point`\\ s with stable blake2s run ids, fans it
out through :func:`~.sweep.run_points` (``--jobs N`` bit-identical by
the §4.8 contract), and computes per-component importance scores from
telemetry-registry snapshot deltas (§4.9).

The moving parts:

* :class:`Knob` — one named setting.  A knob either targets a field of
  the frozen config tree (``config="lynx.coalesce_metadata"``, applied
  by building a :class:`~repro.config.SimConfig` and passing it to the
  scenario as ``config=``) or a plain scenario keyword
  (``kwarg="policy_name"``).  ``values`` is the ordered grid axis (a
  tuple, or a callable of ``fast``); ``baseline`` marks the unablated
  setting.
* :class:`Component` — a named design choice owning one or more knobs;
  importance is reported per (component, knob).
* :class:`Campaign` — the study spec: scenario builder + components +
  row formatting.  Calling it (``campaign(fast=, seed=, jobs=)``)
  returns a classic :class:`~.base.ExperimentResult`, so declared
  studies drop into the benchmarks unchanged; the full
  :class:`CampaignOutcome` (run ids, per-variant snapshots, importance
  table) hangs off ``result.campaign``.

Grid shape: a single-knob campaign enumerates the knob's values in
declared order (the baseline is one of them), which keeps fixed-seed
rows bit-identical with the hand-written predecessors the eight
``ablations`` studies replaced.  A multi-knob campaign produces the
canonical baseline + one-knob-off grid.

Importance: for each knob, every one-off variant is compared against
the baseline on the campaign's primary metric and on the standard
telemetry signals (client goodput, p99 latency via the mergeable
LogHistogram, kernel events processed, core burn from the CPU-pool
utilization gauges).  Positive importance means the baseline setting
outperforms the ablated one — the component earns its keep; negative
importance flags a *harmful* component (removing it helps), which the
scorecard surfaces first.
"""

import hashlib
from dataclasses import replace

from .. import telemetry
from ..config import DEFAULT_CONFIG
from ..errors import ConfigError
from .base import ExperimentResult
from .sweep import Point, run_points

__all__ = ["Knob", "Component", "Campaign", "CampaignOutcome", "CAMPAIGNS",
           "describe", "find_campaign", "run_id_for",
           "snapshot_signals", "HARMFUL_EPS"]

#: components whose mean importance falls below ``-HARMFUL_EPS`` are
#: flagged harmful: ablating them *improves* the primary metric.
HARMFUL_EPS = 0.01

#: the global campaign registry, in declaration order.  Re-declaring an
#: exp_id replaces the old entry (latest wins, like the telemetry
#: registry), which keeps test fixtures from pinning stale objects.
CAMPAIGNS = {}

#: standard telemetry signals reported per component (snapshot deltas)
SIGNAL_KEYS = ("goodput", "p99_us", "kernel_events", "core_burn")


class Knob:
    """One named setting of a component.

    Exactly one of *config* (dotted path into the frozen
    :data:`~repro.config.DEFAULT_CONFIG` tree, validated at declaration
    time) or *kwarg* (scenario keyword) must be given.  *values* is the
    ordered grid axis — a tuple, or a callable of ``fast`` for studies
    whose full sweep widens the axis.  *baseline* is the unablated
    value (default: the first value); for an on/off knob declare
    ``values=(True, False), baseline=True``.
    """

    __slots__ = ("name", "kwarg", "config", "_values", "_baseline", "doc")

    def __init__(self, name, values, baseline=None, kwarg=None, config=None,
                 doc=""):
        if (kwarg is None) == (config is None):
            raise ConfigError("knob %r must target exactly one of kwarg= "
                              "or config=" % name)
        if config is not None:
            _resolve_config_path(DEFAULT_CONFIG, config)  # raises if bogus
        self.name = name
        self.kwarg = kwarg
        self.config = config
        self._values = values
        self._baseline = baseline
        self.doc = doc

    def values(self, fast=True):
        values = self._values(fast) if callable(self._values) else self._values
        values = tuple(values)
        if len(values) < 2:
            raise ConfigError("knob %r needs at least two values (baseline "
                              "plus one ablation)" % self.name)
        return values

    def baseline(self, fast=True):
        values = self.values(fast)
        if self._baseline is None:
            return values[0]
        if self._baseline not in values:
            raise ConfigError("knob %r baseline %r is not one of its values"
                              % (self.name, self._baseline))
        return self._baseline

    def __repr__(self):
        target = ("config=%r" % self.config if self.config
                  else "kwarg=%r" % self.kwarg)
        return "Knob(%r, %s)" % (self.name, target)


class Component:
    """A named design choice owning one or more :class:`Knob`\\ s."""

    __slots__ = ("name", "knobs", "doc")

    def __init__(self, name, knobs, doc=""):
        knobs = tuple(knobs)
        if not knobs:
            raise ConfigError("component %r declares no knobs" % name)
        self.name = name
        self.knobs = knobs
        self.doc = doc

    def __repr__(self):
        return "Component(%r, %d knob(s))" % (self.name, len(self.knobs))


class Variant:
    """One generated grid point: a full knob assignment."""

    __slots__ = ("token", "assignment", "changed", "is_baseline", "run_id")

    def __init__(self, token, assignment, changed):
        self.token = token
        self.assignment = assignment
        self.changed = tuple(changed)
        self.is_baseline = not self.changed
        self.run_id = None  # stamped by Campaign.run (needs the seed)

    def __repr__(self):
        return "Variant(%r, changed=%r)" % (self.token, self.changed)


def run_id_for(exp_id, assignment, seed):
    """Stable run id: blake2s over (exp_id, canonical assignment, seed).

    Canonicalization sorts by knob name and uses ``repr`` values, the
    same convention :func:`~.sweep.derive_seed` keys on, so the id is
    identical in every process, python version, and platform.
    """
    canon = "|".join("%s=%r" % (name, assignment[name])
                     for name in sorted(assignment))
    text = "%s|%r|%s" % (exp_id, seed, canon)
    return hashlib.blake2s(text.encode("utf-8")).hexdigest()[:12]


class Campaign:
    """A declared ablation study.

    Parameters
    ----------
    exp_id, title, paper_ref:
        The classic :class:`~.base.ExperimentResult` header fields.
    scenario:
        Module-level builder run once per variant:
        ``scenario(seed=..., **kwargs)`` where the kwargs are
        ``settings(fast)`` plus the knob targets.  Its return value is
        whatever the row formatter expects.
    components:
        Iterable of :class:`Component`; their knobs span the grid.
    slug:
        The module-level name the campaign is bound to (used by the
        auto-generated module docstring, :func:`describe`).
    settings:
        ``callable(fast) -> dict`` of shared scenario kwargs (measure
        windows and friends).
    row:
        ``callable(ctx, variant, value) -> dict`` mapping one measured
        value to an :class:`ExperimentResult` row.  ``ctx`` exposes the
        whole grid (``ctx.value(token)``, ``ctx.baseline_value``) for
        cross-row math.  Default: ``{"variant": token, "value": value}``.
    metric:
        Row field name (or ``callable(row) -> float``) scoring one
        variant for importance; *higher_is_better* orients the sign.
    notes / finish:
        Static note strings, and an optional ``callable(ctx, result)``
        for notes computed from the rows.
    point_kwargs:
        Optional ``callable(fast, variant) -> dict`` merged over the
        default scenario kwargs — the escape hatch for per-variant
        measurement windows.
    summary:
        One-line description for registries and docstrings.
    """

    def __init__(self, exp_id, title, paper_ref, scenario, components,
                 slug=None, settings=None, row=None, metric=None,
                 higher_is_better=True, notes=(), finish=None,
                 point_kwargs=None, summary=""):
        self.exp_id = exp_id
        self.title = title
        self.paper_ref = paper_ref
        self.scenario = scenario
        self.components = tuple(components)
        self.slug = slug or getattr(scenario, "__name__", exp_id)
        self.settings = settings
        self.row = row
        self.metric = metric
        self.higher_is_better = higher_is_better
        self.notes = tuple(notes)
        self.finish = finish
        self.point_kwargs = point_kwargs
        self.summary = summary
        self.module = getattr(scenario, "__module__", None)
        knobs = self.knobs()
        if len({k.name for k in knobs}) != len(knobs):
            raise ConfigError("campaign %r has duplicate knob names" % exp_id)
        CAMPAIGNS[exp_id] = self

    # -- declaration surface ----------------------------------------------

    def knobs(self):
        return tuple(k for comp in self.components for k in comp.knobs)

    def variants(self, fast=True):
        """The generated grid, in deterministic declaration order."""
        knobs = self.knobs()
        baseline = {k.name: k.baseline(fast) for k in knobs}
        if len(knobs) == 1:
            # Single-knob study: the axis IS the grid; enumerate the
            # declared values in order so rows (and derived seeds) match
            # the hand-written predecessors.
            knob = knobs[0]
            return [Variant(v, dict(baseline, **{knob.name: v}),
                            [knob.name] if v != baseline[knob.name] else [])
                    for v in knob.values(fast)]
        out = [Variant("baseline", dict(baseline), [])]
        for knob in knobs:
            for value in knob.values(fast):
                if value == baseline[knob.name]:
                    continue
                out.append(Variant("%s=%s" % (knob.name, value),
                                   dict(baseline, **{knob.name: value}),
                                   [knob.name]))
        return out

    def scenario_kwargs(self, fast, variant):
        """The picklable kwargs one variant's scenario runs with."""
        kwargs = dict(self.settings(fast)) if self.settings else {}
        config = None
        for knob in self.knobs():
            value = variant.assignment[knob.name]
            if knob.kwarg is not None:
                kwargs[knob.kwarg] = value
            else:
                config = _config_with(config or DEFAULT_CONFIG,
                                      knob.config, value)
        if config is not None:
            kwargs["config"] = config
        if self.point_kwargs is not None:
            kwargs.update(self.point_kwargs(fast, variant))
        return kwargs

    # -- execution ---------------------------------------------------------

    def run(self, fast=True, seed=42, jobs=None):
        """Run the campaign; returns a :class:`CampaignOutcome`."""
        variants = self.variants(fast)
        points = []
        for variant in variants:
            variant.run_id = run_id_for(self.exp_id, variant.assignment, seed)
            points.append(Point(
                (self.exp_id, variant.token), _run_variant,
                dict(module=self.module, exp_id=self.exp_id,
                     scenario_kwargs=self.scenario_kwargs(fast, variant)),
                root_seed=seed))
        outs = run_points(points, jobs=jobs)
        values = [value for value, _snap in outs]
        snapshots = [snap for _value, snap in outs]
        ctx = CampaignContext(self, fast, seed, variants, values, snapshots)
        result = ExperimentResult(self.exp_id, self.title, self.paper_ref)
        rows = []
        for variant, value in zip(variants, values):
            if self.row is not None:
                row = self.row(ctx, variant, value)
            else:
                row = {"variant": str(variant.token), "value": value}
            rows.append(result.add(**row))
        for note in self.notes:
            result.note(note)
        if self.finish is not None:
            self.finish(ctx, result)
        outcome = CampaignOutcome(self, fast, seed, variants, values,
                                  snapshots, rows, result)
        result.campaign = outcome
        return outcome

    def __call__(self, fast=True, seed=42, jobs=None):
        """Benchmark-compatible entry point: the classic result object."""
        return self.run(fast=fast, seed=seed, jobs=jobs).result

    def __repr__(self):
        return "Campaign(%r, %d component(s))" % (self.exp_id,
                                                  len(self.components))


class CampaignContext:
    """What row formatters and finish hooks see: the whole grid."""

    __slots__ = ("campaign", "fast", "seed", "variants", "values",
                 "snapshots")

    def __init__(self, campaign, fast, seed, variants, values, snapshots):
        self.campaign = campaign
        self.fast = fast
        self.seed = seed
        self.variants = variants
        self.values = values
        self.snapshots = snapshots

    def value(self, token):
        """The measured value of the variant with *token* (KeyError if
        absent)."""
        for variant, value in zip(self.variants, self.values):
            if variant.token == token:
                return value
        raise KeyError("no variant %r in campaign %r"
                       % (token, self.campaign.exp_id))

    @property
    def baseline_value(self):
        for variant, value in zip(self.variants, self.values):
            if variant.is_baseline:
                return value
        raise KeyError("campaign %r generated no baseline variant"
                       % self.campaign.exp_id)


class CampaignOutcome:
    """Everything one campaign run produced, importance included."""

    def __init__(self, campaign, fast, seed, variants, values, snapshots,
                 rows, result):
        self.campaign = campaign
        self.fast = fast
        self.seed = seed
        self.variants = variants
        self.values = values
        self.snapshots = snapshots
        self.rows = rows
        self.result = result
        self.importance = self._importance()

    # -- scoring -----------------------------------------------------------

    def _score(self, row):
        metric = self.campaign.metric
        if metric is None:
            return None
        if callable(metric):
            return metric(row)
        value = row.get(metric)
        return float(value) if isinstance(value, (int, float)) else None

    def _baseline_index(self):
        for index, variant in enumerate(self.variants):
            if variant.is_baseline:
                return index
        raise KeyError("campaign %r generated no baseline variant"
                       % self.campaign.exp_id)

    def _importance(self):
        """Per-(component, knob) importance entries, declaration order.

        ``importance`` is the mean, over the knob's one-off variants,
        of the signed relative change of the primary metric: positive
        means the baseline setting wins (the component helps), negative
        means ablating the component *improved* the metric — harmful.
        ``signals`` carries the raw relative telemetry deltas (variant
        vs baseline; positive = the variant measured higher).
        """
        base_index = self._baseline_index()
        base_score = self._score(self.rows[base_index])
        base_signals = snapshot_signals(self.snapshots[base_index])
        sign = -1.0 if self.campaign.higher_is_better else 1.0
        entries = []
        for component in self.campaign.components:
            for knob in component.knobs:
                deltas, tokens, scores = [], [], {}
                signal_deltas = {key: [] for key in SIGNAL_KEYS}
                for index, variant in enumerate(self.variants):
                    if variant.changed != (knob.name,):
                        continue
                    tokens.append(str(variant.token))
                    score = self._score(self.rows[index])
                    scores[str(variant.token)] = score
                    rel = telemetry.relative_delta(base_score, score)
                    if rel is not None:
                        deltas.append(sign * rel)
                    var_signals = snapshot_signals(self.snapshots[index])
                    for key in SIGNAL_KEYS:
                        rel = telemetry.relative_delta(base_signals[key],
                                                       var_signals[key])
                        if rel is not None:
                            signal_deltas[key].append(rel)
                importance = (sum(deltas) / len(deltas)) if deltas else None
                entries.append({
                    "component": component.name,
                    "knob": knob.name,
                    "baseline": repr(knob.baseline(self.fast)),
                    "variants": tokens,
                    "scores": scores,
                    "importance": importance,
                    "harmful": (importance is not None
                                and importance < -HARMFUL_EPS),
                    "signals": {key: (sum(vals) / len(vals)) if vals else None
                                for key, vals in signal_deltas.items()},
                })
        return entries

    # -- export ------------------------------------------------------------

    def to_doc(self):
        """The ``repro.campaign/1`` per-campaign document entry."""
        campaign = self.campaign
        return {
            "exp_id": campaign.exp_id,
            "slug": campaign.slug,
            "title": campaign.title,
            "paper_ref": campaign.paper_ref,
            "seed": self.seed,
            "fast": self.fast,
            "metric": (campaign.metric if isinstance(campaign.metric, str)
                       else None),
            "higher_is_better": campaign.higher_is_better,
            "baseline": str(self.variants[self._baseline_index()].token),
            "variants": [
                {"token": str(variant.token),
                 "run_id": variant.run_id,
                 "assignment": dict(variant.assignment),
                 "baseline": variant.is_baseline,
                 "row": row,
                 "score": self._score(row)}
                for variant, row in zip(self.variants, self.rows)
            ],
            "importance": self.importance,
            "notes": list(self.result.notes),
        }


# ---------------------------------------------------------------------------
# standard telemetry signals
# ---------------------------------------------------------------------------

#: registry prefixes of the planes that offer load and record responses
_CLIENT_PLANES = ("net.client.", "net.population.")


def snapshot_signals(snap):
    """Reduce one variant's registry snapshot to the standard signals.

    * ``goodput`` — summed ``.responses`` rates of every client and
      population (``net.client.*``, ``net.population.*``; req/s);
    * ``p99_us`` — p99 of their merged ``.latency`` LogHistograms;
    * ``kernel_events`` — ``sim.kernel.events_processed``;
    * ``core_burn`` — summed time-weighted means of the CPU-pool
      ``*.utilization`` gauges (≈ busy cores).

    Signals a run never produced come back ``None`` (e.g. flood-driven
    studies with no clients or populations have no goodput).
    """
    goodput, saw_rate = 0.0, False
    latency = telemetry.LogHistogram()
    core_burn, saw_gauge = 0.0, False
    for name, entry in snap.items():
        kind = entry.get("kind")
        if (kind == "rate" and name.startswith(_CLIENT_PLANES)
                and name.endswith(".responses") and entry["elapsed"] > 0):
            goodput += entry["count"] / entry["elapsed"] * 1e6
            saw_rate = True
        elif (kind == "histogram" and name.startswith(_CLIENT_PLANES)
                and name.endswith(".latency")):
            latency.merge(entry)
        elif kind == "gauge" and name.endswith(".utilization"):
            core_burn += telemetry.scalar_of(entry)
            saw_gauge = True
    kernel = snap.get("sim.kernel.events_processed")
    return {
        "goodput": goodput if saw_rate else None,
        "p99_us": latency.p99() if latency.count else None,
        "kernel_events": kernel["value"] if kernel is not None else None,
        "core_burn": core_burn if saw_gauge else None,
    }


# ---------------------------------------------------------------------------
# registry-level runners
# ---------------------------------------------------------------------------

def find_campaign(exp_id, module=None):
    """Look up a declared campaign, importing *module* on a miss.

    Worker processes resolve points this way: declarations are
    module-level, so importing the declaring module (already resident
    under the ``fork`` start method) rebuilds the registry entry.
    """
    campaign = CAMPAIGNS.get(exp_id)
    if campaign is None and module:
        import importlib

        importlib.import_module(module)
        campaign = CAMPAIGNS.get(exp_id)
    if campaign is None:
        raise ConfigError("no campaign %r declared%s"
                          % (exp_id,
                             " (after importing %s)" % module if module
                             else ""))
    return campaign


def describe(campaigns=None):
    """reST listing of declared campaigns for module docstrings.

    ``ablations.__doc__`` appends this at import time, so the study
    list can never drift from the registry again.
    """
    campaigns = list(CAMPAIGNS.values()) if campaigns is None else campaigns
    lines = ["Declared studies (generated from the campaign registry):", ""]
    for campaign in campaigns:
        knobs = ", ".join("``%s``" % k.name for k in campaign.knobs())
        lines.append("* [%s] :data:`%s` — %s (%s; knobs: %s)"
                     % (campaign.exp_id, campaign.slug,
                        campaign.summary or campaign.title,
                        campaign.paper_ref, knobs))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# point builder (module-level: sweep points must pickle)
# ---------------------------------------------------------------------------

def _run_variant(module, exp_id, scenario_kwargs, seed=42):
    """Run one variant inside its sweep-point telemetry scope.

    Returns ``(value, snapshot)``: the scenario's measured value plus
    the point-local registry snapshot the importance scores diff.  The
    executor's scope (§4.8) guarantees the snapshot covers exactly this
    variant, inline or in a worker.
    """
    campaign = find_campaign(exp_id, module)
    value = campaign.scenario(seed=seed, **scenario_kwargs)
    return value, telemetry.snapshot()


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _resolve_config_path(config, path):
    """Validate a dotted knob path against the frozen config tree."""
    node = config
    for field_name in path.split("."):
        if not hasattr(node, field_name):
            raise ConfigError("config knob path %r does not resolve on "
                              "%s (no field %r)"
                              % (path, type(config).__name__, field_name))
        node = getattr(node, field_name)
    return node


def _config_with(config, path, value):
    """A copy of *config* with the dotted *path* field set to *value*."""
    head, _, rest = path.partition(".")
    new = value if not rest else _config_with(getattr(config, head), rest,
                                              value)
    if hasattr(config, "with_"):
        return config.with_(**{head: new})
    return replace(config, **{head: new})

