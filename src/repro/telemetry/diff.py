"""Snapshot diffing: reduce registry snapshots to scalars and compare.

The campaign engine (DESIGN.md §4.12) scores a component by how much
the world changes when the component is knocked out: it runs the
baseline and the ablated variant in their own telemetry scopes and
compares the two registry snapshots.  This module owns the comparison
arithmetic so every consumer (campaign importance scores, the report
scorecard, ad-hoc notebooks) reduces snapshots the same way.

Every instrument kind maps to one canonical scalar:

====================  =====================================================
kind                  scalar
====================  =====================================================
``counter``/``peak``  the value
``rate``              the event count (window lengths are host-independent
                      only in simulated time, so the count is the robust
                      scalar; use :func:`materialize` for rates)
``gauge``             the time-weighted mean (``area / elapsed``)
``histogram``         p99 (the tail is what ablations move)
====================  =====================================================
"""

import math

from .instruments import materialize

__all__ = ["scalar_of", "relative_delta"]


def scalar_of(snap):
    """Reduce one instrument snapshot to its canonical scalar (table
    above).  Unknown kinds raise ``ValueError``."""
    kind = snap.get("kind")
    if kind in ("counter", "peak"):
        return snap["value"]
    if kind == "rate":
        return snap["count"]
    if kind == "gauge":
        elapsed = snap["elapsed"]
        return snap["area"] / elapsed if elapsed > 0 else 0.0
    if kind == "histogram":
        if not snap["count"]:
            return 0.0
        return materialize(snap).p99()
    raise ValueError("unknown instrument kind %r" % (kind,))


def relative_delta(base, other):
    """``(other - base) / |base|`` — ``None`` when undefined.

    Undefined means a zero/NaN baseline (no meaningful relative change)
    or non-numeric operands; callers render ``None`` as "n/a" rather
    than inventing a sign.
    """
    try:
        base = float(base)
        other = float(other)
    except (TypeError, ValueError):
        return None
    if base == 0 or math.isnan(base) or math.isnan(other):
        return None
    return (other - base) / abs(base)
