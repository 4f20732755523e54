"""One mergeable telemetry surface for every measurement path.

The repro used to collect numbers through four organically grown
mechanisms (``sim/stats`` instruments, module-global kernel counters,
tracer drop counts, hand-built experiment rows).  This package replaces
them with a single observer contract:

* :mod:`~repro.telemetry.instruments` — typed instruments (monotonic
  counter, peak gauge, time-weighted gauge, mergeable log-bucketed
  histogram, pull counters) sharing ``kind``/``snapshot``/``merge``;
* :mod:`~repro.telemetry.registry` — the hierarchical name → instrument
  registry plus the scope stack the sweep executor uses to keep
  ``--jobs N`` bit-identical;
* :mod:`~repro.telemetry.export` — pretty-printing and the
  ``repro.telemetry/1`` JSON schema consumed by the report scorecard.

Usage::

    from repro import telemetry

    reg = telemetry.registry()               # current scope's registry
    reg.counter("sim.kernel.events_processed").inc(n)
    with telemetry.scope() as point_reg:     # isolate one sweep point
        ...
        snap = point_reg.snapshot()
    telemetry.registry().merge(snap)

See DESIGN.md §4.9 for the full contract.
"""

from .instruments import (
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
from .registry import (
    MetricsRegistry,
    current as registry,
    pop_scope,
    push_scope,
    reset_scopes,
    scope,
)
from .export import (
    CAMPAIGN_SCHEMA,
    SCHEMA,
    dump_campaign,
    dump_metrics,
    dumps_campaign,
    dumps_metrics,
    format_snapshot,
    load_campaign,
    load_metrics,
)
from .diff import relative_delta, scalar_of

__all__ = [
    "Counter", "DerivedRatio", "LogHistogram", "PeakGauge", "PullCounter",
    "PullPeak", "RateStat", "RatioHolder", "TimeWeightedGauge",
    "materialize",
    "MetricsRegistry", "registry", "push_scope", "pop_scope", "scope",
    "reset_scopes",
    "SCHEMA", "CAMPAIGN_SCHEMA", "dump_metrics", "dumps_metrics",
    "format_snapshot", "load_metrics",
    "dump_campaign", "dumps_campaign", "load_campaign",
    "relative_delta", "scalar_of",
]


def snapshot(prefix=""):
    """Snapshot the current scope's registry."""
    return registry().snapshot(prefix)
