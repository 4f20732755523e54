"""Rendering and (de)serialization for registry snapshots.

The JSON schema (consumed by ``repro.report.scorecard``)::

    {
      "schema": "repro.telemetry/1",
      "metrics": {
        "<dotted.name>": {"kind": "counter", "value": 123},
        "<dotted.name>": {"kind": "histogram", "count": ..., "sum": ...,
                           "min": ..., "max": ..., "zeros": ...,
                           "buckets": {"<idx>": n, ...}},
        ...
      }
    }

``metrics`` is exactly what ``MetricsRegistry.snapshot()`` returns, so
a dumped file can be merged straight back into a registry.
"""

import json
import math

from .instruments import materialize

__all__ = ["SCHEMA", "CAMPAIGN_SCHEMA", "format_snapshot",
           "dump_metrics", "dumps_metrics",
           "load_metrics", "dump_campaign", "dumps_campaign",
           "load_campaign"]

SCHEMA = "repro.telemetry/1"

#: sibling schema for campaign runs (DESIGN.md §4.12): per-variant rows,
#: stable run ids, and per-component importance scores derived from
#: telemetry snapshot deltas.  Written by ``python -m repro.experiments
#: campaign --out`` and consumed by the report scorecard.
CAMPAIGN_SCHEMA = "repro.campaign/1"


def _fmt_num(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return "%.3g" % value
        return "%.3f" % value
    return "{:,}".format(value)


def _describe(snap):
    kind = snap["kind"]
    if kind in ("counter", "peak", "ratio"):
        return _fmt_num(snap["value"])
    if kind == "rate":
        acc = materialize(snap)
        return "%s events, %s/s" % (_fmt_num(snap["count"]),
                                    _fmt_num(acc.per_sec()))
    if kind == "gauge":
        elapsed = snap["elapsed"]
        mean = snap["area"] / elapsed if elapsed > 0 else 0.0
        return "mean %s, max %s" % (_fmt_num(mean), _fmt_num(snap["max"]))
    if kind == "histogram":
        hist = materialize(snap)
        return ("n=%s mean=%s p50=%s p99=%s max=%s"
                % (_fmt_num(snap["count"]), _fmt_num(hist.mean()),
                   _fmt_num(hist.p50()), _fmt_num(hist.p99()),
                   _fmt_num(snap["max"])))
    return repr(snap)


def format_snapshot(snapshot, prefix="", title="telemetry"):
    """Render a registry snapshot as an aligned, human-readable table."""
    names = [n for n in sorted(snapshot)
             if not prefix or n == prefix or n.startswith(prefix + ".")]
    if not names:
        return "%s: (no instruments)" % title
    width = max(len(n) for n in names)
    lines = ["%s: %d instruments" % (title, len(names))]
    for name in names:
        snap = snapshot[name]
        lines.append("  %-*s  %-9s  %s"
                     % (width, name, snap["kind"], _describe(snap)))
    return "\n".join(lines)


def dumps_metrics(snapshot):
    """Serialize a registry snapshot to the ``repro.telemetry/1`` JSON."""
    return json.dumps({"schema": SCHEMA, "metrics": snapshot},
                      indent=2, sort_keys=False)


def dump_metrics(snapshot, path):
    """Write the ``repro.telemetry/1`` JSON document to *path*."""
    with open(path, "w") as fh:
        fh.write(dumps_metrics(snapshot))
        fh.write("\n")


def load_metrics(path_or_file):
    """Load a metrics dump; returns the ``{name: snap}`` dict.

    Raises ``ValueError`` on a missing or unknown ``schema`` tag.
    """
    doc = _load_json(path_or_file)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise ValueError("not a %s document (schema=%r)" % (SCHEMA, schema))
    return doc["metrics"]


def _load_json(path_or_file):
    if hasattr(path_or_file, "read"):
        return json.load(path_or_file)
    with open(path_or_file) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# repro.campaign/1
# ---------------------------------------------------------------------------

def dumps_campaign(campaigns, meta=None):
    """Serialize campaign outcome documents to ``repro.campaign/1`` JSON.

    *campaigns* is a list of per-campaign dicts (see
    ``repro.experiments.campaign.CampaignOutcome.to_doc``); this layer
    only owns the envelope, so the schema version lives next to its
    ``repro.telemetry/1`` sibling.
    """
    doc = {"schema": CAMPAIGN_SCHEMA}
    if meta:
        doc["meta"] = dict(meta)
    doc["campaigns"] = list(campaigns)
    return json.dumps(doc, indent=2, sort_keys=False)


def dump_campaign(campaigns, path, meta=None):
    """Write the ``repro.campaign/1`` JSON document to *path*."""
    with open(path, "w") as fh:
        fh.write(dumps_campaign(campaigns, meta=meta))
        fh.write("\n")


def load_campaign(path_or_file):
    """Load a campaign dump; returns the full document dict.

    Validates the ``repro.campaign/1`` schema tag and the presence and
    shape of the ``campaigns`` list (each entry must carry ``exp_id``,
    ``variants``, and ``importance``); raises ``ValueError`` otherwise.
    """
    doc = _load_json(path_or_file)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != CAMPAIGN_SCHEMA:
        raise ValueError("not a %s document (schema=%r)"
                         % (CAMPAIGN_SCHEMA, schema))
    campaigns = doc.get("campaigns")
    if not isinstance(campaigns, list):
        raise ValueError("%s document lacks a campaigns list"
                         % CAMPAIGN_SCHEMA)
    for entry in campaigns:
        missing = [k for k in ("exp_id", "variants", "importance")
                   if k not in entry]
        if missing:
            raise ValueError("campaign entry %r lacks %s"
                             % (entry.get("exp_id"), ", ".join(missing)))
    return doc
