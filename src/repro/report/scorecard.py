"""The reproduction scorecard: grade measured results against the paper.

Reads the JSON artifacts the benchmarks write under
``benchmarks/results/`` and grades every row that carries a paper
reference column (``paper_*``) by relative deviation:

    MATCH  within 25%
    NEAR   within 60%
    DEVIATES  beyond that (these should all be in EXPERIMENTS.md's
              deviation list)

Run it after a benchmark pass::

    python -m repro.report [results_dir]
"""

import json
import math
import os

from ..errors import ConfigError
from ..telemetry import materialize
from ..telemetry.export import load_campaign, load_metrics

#: filename of the merged telemetry snapshot (written by
#: ``python -m repro.experiments --metrics PATH``) the scorecard
#: summarizes alongside the per-experiment grades
METRICS_FILENAME = "metrics.json"

#: filename of the campaign importance document (written by
#: ``python -m repro.experiments campaign --out PATH``) rendered as the
#: ranked per-component importance table
CAMPAIGN_FILENAME = "campaign.json"

MATCH_REL = 0.25
NEAR_REL = 0.60

#: row columns compared against their paper_* counterpart
_PAIRS = (
    ("krps", "paper_krps"),
    ("p90_us", "paper_p90_us"),
    ("mpps", "paper_mpps"),
    ("speedup", "paper_speedup"),
    ("knee_estimate", "paper_knee"),
    ("e2e_us", "paper_e2e_us"),
    ("overhead_us", "paper_overhead_us"),
    ("snic_span_total", "paper_span"),
    ("extra_us", "paper_extra_us"),
    ("memcached_ktps", "paper_ktps"),
    ("stack_cost_ratio", "paper_processing_ratio"),
)


def grade(measured, paper):
    """Grade one measured/paper pair."""
    if paper in (None, 0):
        return None
    try:
        rel = abs(float(measured) - float(paper)) / abs(float(paper))
    except (TypeError, ValueError):
        return None
    if math.isnan(rel):
        return None
    if rel <= MATCH_REL:
        return "MATCH"
    if rel <= NEAR_REL:
        return "NEAR"
    return "DEVIATES"


def score_rows(rows):
    """Grade every (measured, paper) pair found in *rows*."""
    findings = []
    for index, row in enumerate(rows):
        for measured_key, paper_key in _PAIRS:
            if paper_key not in row or measured_key not in row:
                continue
            verdict = grade(row.get(measured_key), row.get(paper_key))
            if verdict is None:
                continue
            findings.append({
                "row": index,
                "metric": measured_key,
                "measured": row[measured_key],
                "paper": row[paper_key],
                "verdict": verdict,
            })
    return findings


def score_results_dir(results_dir):
    """Score every EXX.json artifact; returns {exp_id: findings}."""
    if not os.path.isdir(results_dir):
        raise ConfigError("no results directory at %r — run "
                          "`pytest benchmarks/ --benchmark-only` first"
                          % results_dir)
    scores = {}
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(results_dir, name)) as fh:
            blob = json.load(fh)
        findings = score_rows(blob.get("rows", []))
        if findings:
            scores[blob.get("exp_id", name)] = findings
    return scores


def load_results_metrics(results_dir):
    """The telemetry snapshot shipped with the results, or ``None``.

    Looks for ``metrics.json`` (see :data:`METRICS_FILENAME`) in
    *results_dir*; validates the ``repro.telemetry/1`` schema.
    """
    path = os.path.join(results_dir, METRICS_FILENAME)
    if not os.path.isfile(path):
        return None
    return load_metrics(path)


def load_results_campaign(results_dir):
    """The campaign importance document shipped with the results, or
    ``None``.

    Looks for ``campaign.json`` (see :data:`CAMPAIGN_FILENAME`) in
    *results_dir*; validates the ``repro.campaign/1`` schema.
    """
    path = os.path.join(results_dir, CAMPAIGN_FILENAME)
    if not os.path.isfile(path):
        return None
    return load_campaign(path)


def _pct(value):
    return "n/a" if value is None else "%+.1f%%" % (100.0 * value)


def render_importance(campaigns):
    """Ranked per-component importance table from campaign outcomes.

    *campaigns* is a ``repro.campaign/1`` document (or just its
    ``campaigns`` list).  Components rank by ``|importance|`` — the
    mean signed relative change of the campaign's primary metric when
    the component is ablated, oriented so positive means the baseline
    setting wins.  Negative importance beyond the engine's threshold is
    flagged HARMFUL: ablating (or re-tuning) that component *improved*
    the metric, which is exactly the row a design review reads first.
    The signal columns are raw relative telemetry deltas (ablated vs
    baseline; positive = the ablated run measured higher).
    """
    if isinstance(campaigns, dict):
        campaigns = campaigns.get("campaigns", [])
    entries = []
    for doc in campaigns:
        metric = doc.get("metric") or "metric"
        for imp in doc.get("importance", []):
            entries.append((doc.get("exp_id", "?"), metric, imp))
    entries.sort(key=lambda item: (item[2].get("importance") is None,
                                   -abs(item[2].get("importance") or 0.0)))
    lines = ["component importance (ranked by |importance|)",
             "=" * 78]
    if not entries:
        lines.append("(no campaigns)")
        return "\n".join(lines)
    lines.append("%-8s %-16s %-20s %10s %9s %9s %9s %9s"
                 % ("exp", "component", "knob", "importance",
                    "goodput", "p99", "kevents", "burn"))
    lines.append("-" * 78)
    for exp_id, metric, imp in entries:
        signals = imp.get("signals", {})
        importance = imp.get("importance")
        lines.append("%-8s %-16s %-20s %10s %9s %9s %9s %9s%s"
                     % (exp_id, imp.get("component", "?"),
                        imp.get("knob", "?"),
                        "n/a" if importance is None
                        else "%+.3f" % importance,
                        _pct(signals.get("goodput")),
                        _pct(signals.get("p99_us")),
                        _pct(signals.get("kernel_events")),
                        _pct(signals.get("core_burn")),
                        "  HARMFUL" if imp.get("harmful") else ""))
    lines.append("-" * 78)
    lines.append("importance > 0: the baseline setting beats its "
                 "ablations on the campaign's metric; HARMFUL: an "
                 "ablation improved it")
    return "\n".join(lines)


def summarize_metrics(metrics):
    """Health summary rows from a merged telemetry snapshot.

    Surfaces the signals a reviewer checks first: how much simulation
    backed the numbers, whether anything was dropped along the way, and
    the shape of the client-observed latency histograms.
    """
    rows = []

    def counter_sum(suffixes):
        total, n = 0, 0
        for name, snap in metrics.items():
            if snap.get("kind") == "counter" and name.endswith(suffixes):
                total += snap.get("value", 0)
                n += 1
        return total, n

    kernel = metrics.get("sim.kernel.events_processed")
    if kernel is not None:
        rows.append(("kernel events processed", "%d" % kernel["value"]))
    drops, n_drop = counter_sum(
        (".drops", ".dropped", ".closed_port_drops", ".shed_errors"))
    rows.append(("drop counters (%d instruments)" % n_drop, "%d" % drops))
    # Fault-injection campaign summary (DESIGN.md §4.10): only present
    # when a schedule was armed, plus any client-side retry traffic.
    for group, label in (("faults.injected.", "faults injected"),
                         ("faults.dropped.", "faults: entries dropped"),
                         ("faults.recovered.", "faults recovered")):
        total, n = 0, 0
        for name, snap in metrics.items():
            if snap.get("kind") == "counter" and name.startswith(group):
                total += snap.get("value", 0)
                n += 1
        if n:
            rows.append(("%s (%d kinds)" % (label, n), "%d" % total))
    retries, n_retry = counter_sum((".retries",))
    if retries:
        rows.append(("client retries (%d clients)" % n_retry, "%d" % retries))
    trace_drops = metrics.get("sim.trace.dropped")
    if trace_drops is not None and trace_drops.get("value"):
        rows.append(("tracer records dropped", "%d" % trace_drops["value"]))
    for name, snap in metrics.items():
        if snap.get("kind") == "histogram" and snap.get("count"):
            hist = materialize(snap)
            rows.append((name, "n=%d p50=%.1f p99=%.1f max=%.1f"
                         % (hist.count, hist.p50(), hist.p99(), hist.max)))
    return rows


def render_scorecard(scores, metrics=None, campaign=None):
    """Printable scorecard with per-experiment and overall tallies.

    *metrics* (optional) is a merged telemetry snapshot — the decoded
    ``metrics.json`` — appended as a health-summary section.
    *campaign* (optional) is a decoded ``repro.campaign/1`` document —
    appended as the ranked component-importance table.
    """
    lines = ["reproduction scorecard", "=" * 60]
    tally = {"MATCH": 0, "NEAR": 0, "DEVIATES": 0}
    for exp_id in sorted(scores):
        for f in scores[exp_id]:
            tally[f["verdict"]] += 1
            lines.append("%-4s %-18s measured %-10s paper %-10s %s"
                         % (exp_id, f["metric"], f["measured"], f["paper"],
                            f["verdict"]))
    total = sum(tally.values()) or 1
    lines.append("-" * 60)
    lines.append("MATCH %d (%.0f%%)   NEAR %d   DEVIATES %d   of %d "
                 "paper-anchored values"
                 % (tally["MATCH"], 100 * tally["MATCH"] / total,
                    tally["NEAR"], tally["DEVIATES"], total))
    if metrics:
        lines.append("")
        lines.append("telemetry summary (%d instruments)" % len(metrics))
        lines.append("-" * 60)
        for label, value in summarize_metrics(metrics):
            lines.append("%-44s %s" % (label, value))
    if campaign:
        lines.append("")
        lines.append(render_importance(campaign))
    return "\n".join(lines)
