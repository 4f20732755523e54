"""Measurement instruments bound to a simulation clock.

The warmup cut is ``reset()``, called at the end of warmup (the
paper's 2-second warmup methodology, §6), mostly by
``Testbed.warmup_then_measure``.  :class:`RateMeter` restarts its
measurement window at the environment's current time;
:class:`LatencyRecorder` drops every sample recorded so far.
:class:`TimeWeightedGauge` has no cut: it averages from construction.

Every instrument also speaks the telemetry protocol
(``kind``/``snapshot()``/``merge()``, DESIGN.md §4.9) so it can be
registered in the :mod:`repro.telemetry` registry and merged across
sweep workers.  Snapshots reduce to mergeable forms — a
:class:`LatencyRecorder` snapshots as a fixed-layout log-bucketed
histogram — while the live objects keep their exact-sample semantics.
"""

import math

import numpy as np

from ..telemetry import instruments as _ti


class LatencyRecorder:
    """Collects individual samples and reports exact percentiles.

    Needs no clock: samples are untimed.  The client RX fast path
    appends to ``_samples`` directly; tests call :meth:`record`.
    """

    kind = "histogram"

    def __init__(self, name=None):
        self.name = name or "latency"
        self._samples = []
        self._merged = None

    def record(self, value):
        """Append one latency sample (us)."""
        self._samples.append(value)

    def reset(self):
        """Drop every sample recorded so far (end of warmup)."""
        self._samples = []
        self._merged = None

    @property
    def count(self):
        """Number of samples recorded since the last reset."""
        return len(self._samples)

    @property
    def samples(self):
        """All samples as a float array."""
        return np.asarray(self._samples, dtype=float)

    def mean(self):
        """Arithmetic mean of the samples."""
        return float(np.mean(self._samples)) if self._samples else math.nan

    def percentile(self, q):
        """Exact q-th percentile (q in [0, 100])."""
        if not self._samples:
            return math.nan
        return float(np.percentile(self._samples, q))

    def p50(self):
        """Median latency."""
        return self.percentile(50)

    def p90(self):
        """90th percentile latency."""
        return self.percentile(90)

    def p99(self):
        """99th percentile latency."""
        return self.percentile(99)

    def max(self):
        """Largest sample."""
        return float(np.max(self._samples)) if self._samples else math.nan

    def min(self):
        """Smallest sample."""
        return float(np.min(self._samples)) if self._samples else math.nan

    def summary(self):
        """Dict of the statistics the paper reports."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.p50(),
            "p90": self.p90(),
            "p99": self.p99(),
            "min": self.min(),
            "max": self.max(),
        }

    def snapshot(self):
        """Mergeable form: the samples bucketed into a LogHistogram."""
        hist = _ti.LogHistogram()
        if self._samples:
            hist.record_many(self._samples)
        if self._merged is not None:
            hist.merge(self._merged.snapshot())
        return hist.snapshot()

    def merge(self, snap):
        """Fold a foreign histogram snapshot in (kept out of the exact
        local samples; it only surfaces through :meth:`snapshot`)."""
        if self._merged is None:
            self._merged = _ti.LogHistogram()
        self._merged.merge(snap)


class RateMeter:
    """Counts events and reports a rate over the measured interval."""

    kind = "rate"

    def __init__(self, env, name=None):
        self.env = env
        self.name = name or "rate"
        self.count = 0
        self._start = env.now
        self._merged_count = 0
        self._merged_elapsed = 0.0

    def tick(self, n=1):
        """Count *n* events."""
        self.count += n

    def reset(self):
        """Restart the measurement window at the current time."""
        self.count = 0
        self._start = self.env.now
        self._merged_count = 0
        self._merged_elapsed = 0.0

    @property
    def elapsed(self):
        """Time since the measurement window opened (us)."""
        return self.env.now - self._start

    def per_us(self):
        """Event rate per microsecond over the window."""
        if self.elapsed <= 0:
            return math.nan
        return self.count / self.elapsed

    def per_sec(self):
        """Event rate per second over the window."""
        return self.per_us() * 1e6

    def snapshot(self):
        return {"kind": "rate",
                "count": self.count + self._merged_count,
                "elapsed": self.elapsed + self._merged_elapsed}

    def merge(self, snap):
        """Fold a foreign rate snapshot in (surfaces only through
        :meth:`snapshot`; the live window stays untouched)."""
        self._merged_count += snap["count"]
        self._merged_elapsed += snap["elapsed"]


class TimeWeightedGauge(_ti.TimeWeightedGauge):
    """Tracks a piecewise-constant value; reports its time-weighted mean.

    The simulation-clock binding of the telemetry gauge: reads the
    environment's ``now``.  The internals (``_value``/``_area``/
    ``_last_change``/``_max``) are updated with inlined code by
    ``sim/resources.py`` on the hot path — keep the attribute names.
    """

    def __init__(self, env, initial=0.0):
        self.env = env
        super().__init__(clock=lambda: env.now, initial=initial)
