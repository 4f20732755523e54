"""Sustainable-throughput-at-SLO search (DESIGN.md §4.13).

λ-NIC's interactive-serverless framing motivates reporting the *SLO
frontier* — the highest offered load whose tail latency stays under a
target — instead of latency curves over fixed rate grids.
:func:`find_sustainable_load` bisects offered λ over a bracket,
running one independent trial per probe, and returns the highest rate
that met the SLO.

A rate is *sustainable* when both hold:

* the tail latency (``percentile``, default p99) is ≤ ``slo_us``;
* delivered/offered goodput is ≥ ``goodput_floor``.

The goodput guard matters because the RX rings are drop-tail: past
saturation a server can keep serving the requests it *admits* at low
latency while silently dropping the rest, so p99 alone would declare
overload "sustainable".

Determinism: the bisection runs a fixed number of iterations over
fixed float arithmetic, and every trial derives its seed from the
caller's seed and the trial index via the sweep executor's blake2s
derivation — the whole search is one deterministic unit of work, so an
E17 point is bit-identical across ``--jobs 1/N``.

Every probe runs through :func:`~repro.experiments.sweep.run_trial`:
its own telemetry scope, merged into the caller's when the probe
returns (a point's snapshot counts every trial, not the last one), and
inside a sweep point its testbed is freed right away.
"""

import math

from ..errors import ConfigError
from .sweep import derive_seed, run_trial


class TrialResult:
    """One probe of the bisection: offered rate and what it measured."""

    __slots__ = ("rate", "p_tail", "offered_per_sec", "delivered_per_sec",
                 "ok", "seed")

    def __init__(self, rate, p_tail, offered_per_sec, delivered_per_sec,
                 ok, seed):
        self.rate = rate
        self.p_tail = p_tail
        self.offered_per_sec = offered_per_sec
        self.delivered_per_sec = delivered_per_sec
        self.ok = ok
        self.seed = seed

    @property
    def goodput_ratio(self):
        if self.offered_per_sec <= 0:
            return 0.0
        return self.delivered_per_sec / self.offered_per_sec

    def as_dict(self):
        return {"rate_per_us": self.rate, "p_tail_us": self.p_tail,
                "offered_per_sec": self.offered_per_sec,
                "delivered_per_sec": self.delivered_per_sec,
                "goodput_ratio": self.goodput_ratio,
                "ok": self.ok, "seed": self.seed}


class SustainableLoad:
    """The outcome of one :func:`find_sustainable_load` search."""

    __slots__ = ("rate", "knee", "trials", "slo_us", "bracket_saturated")

    def __init__(self, rate, knee, trials, slo_us, bracket_saturated=False):
        #: highest sustainable offered rate (requests/us); 0.0 when
        #: even the bracket's low end violated the SLO
        self.rate = rate
        #: the :class:`TrialResult` of the best sustainable probe
        #: (None when nothing sustained)
        self.knee = knee
        self.trials = trials
        self.slo_us = slo_us
        #: True when the whole bracket sustained the SLO — ``rate`` is
        #: then only a lower bound and the caller should widen the
        #: bracket and re-search
        self.bracket_saturated = bracket_saturated

    @property
    def per_sec(self):
        return self.rate * 1e6


def find_sustainable_load(trial, lo, hi, slo_us, goodput_floor=0.98,
                          iters=7, seed=42):
    """Bisect offered λ to the highest rate meeting the SLO.

    ``trial(rate_per_us, seed)`` runs one independent measurement and
    returns a dict with ``p_tail_us`` (the tail latency *slo_us* bounds),
    ``offered_per_sec``, and ``delivered_per_sec``.  The bracket ends
    are probed first (so the returned trial list documents both
    extremes), then *iters* bisection probes narrow the knee; the
    returned rate carries ~``(hi-lo)/2**iters`` resolution.  When even
    ``hi`` sustains, the result's ``bracket_saturated`` flag is set and
    ``rate`` is only a lower bound — widen the bracket and re-search.
    """
    if lo <= 0 or hi <= lo:
        raise ConfigError("bisection bracket must satisfy 0 < lo < hi")
    trials = []

    def probe(rate, index):
        trial_seed = derive_seed(seed, ("slo-trial", index))
        m = run_trial(trial, rate, trial_seed)
        p_tail = m["p_tail_us"]
        offered = m["offered_per_sec"]
        delivered = m["delivered_per_sec"]
        ok = (not math.isnan(p_tail) and p_tail <= slo_us
              and offered > 0 and delivered / offered >= goodput_floor)
        result = TrialResult(rate, p_tail, offered, delivered, ok,
                             trial_seed)
        trials.append(result)
        return result

    best = None
    low = probe(lo, 0)
    high = probe(hi, 1)
    if low.ok:
        best = low
    if high.ok:
        # The whole bracket sustains: report the top end as a lower
        # bound and flag it so callers can widen the bracket.
        return SustainableLoad(hi, high, trials, slo_us,
                               bracket_saturated=True)
    if not low.ok:
        # Even the low end violates the SLO: nothing sustainable here.
        return SustainableLoad(0.0, None, trials, slo_us)
    for i in range(iters):
        mid = 0.5 * (lo + hi)
        result = probe(mid, 2 + i)
        if result.ok:
            best = result
            lo = mid
        else:
            hi = mid
    return SustainableLoad(best.rate, best, trials, slo_us)
