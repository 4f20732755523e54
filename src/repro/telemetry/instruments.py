"""Typed telemetry instruments (DESIGN.md §4.9).

Every instrument speaks one small protocol:

``kind``
    Class-level string tag describing the snapshot schema.
``snapshot()``
    A JSON-serializable dict (always carrying ``"kind"``) capturing the
    instrument's state at call time.
``merge(snap)``
    Fold another instrument's snapshot (same kind) into this one.
    Merging is associative and commutative: counters add, peaks take the
    max, histogram buckets add bucket-wise.  (Float-valued fields such
    as a histogram's ``sum`` are exact only up to FP rounding; integer
    fields merge exactly in any order.)
``reset()``
    The warmup cut, only on the instruments a measurement window
    reaches (:class:`LogHistogram` here; ``LatencyRecorder`` and
    ``RateMeter`` in ``repro.sim.stats``): zero **in place** — cached
    references stay valid — and restart any time window at the
    instrument's own clock.

Instruments are *read-only observers*: registering or snapshotting them
never perturbs simulated state, so fixed-seed outputs stay bit-identical
with telemetry on or off.

This module must not import anything from ``repro.sim`` — the simulator
layers import *us*.
"""

import math

__all__ = [
    "Counter", "PeakGauge", "PullCounter", "PullPeak",
    "TimeWeightedGauge", "RateStat", "LogHistogram", "materialize",
]


class Counter:
    """A monotonic counter (``value`` only ever grows via :meth:`inc`)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def snapshot(self):
        return {"kind": "counter", "value": self.value}

    def merge(self, snap):
        self.value += snap["value"]


class PeakGauge:
    """Tracks the maximum value ever :meth:`record`-ed."""

    kind = "peak"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def record(self, v):
        if v > self.value:
            self.value = v

    def snapshot(self):
        return {"kind": "peak", "value": self.value}

    def merge(self, snap):
        if snap["value"] > self.value:
            self.value = snap["value"]


class PullCounter:
    """A counter whose value is *read* from live state at snapshot time.

    Wraps a zero-argument callable (typically a closure over a model
    object's plain-int attribute), so the hot path that bumps the
    underlying attribute pays nothing for being observable.  ``merge``
    accumulates foreign snapshots on top of the live reading.
    """

    kind = "counter"
    __slots__ = ("_fn", "_merged")

    def __init__(self, fn):
        self._fn = fn
        self._merged = 0

    @property
    def value(self):
        return self._fn() + self._merged

    def snapshot(self):
        return {"kind": "counter", "value": self.value}

    def merge(self, snap):
        self._merged += snap["value"]


class PullPeak:
    """Like :class:`PullCounter` but merged as a peak (max wins)."""

    kind = "peak"
    __slots__ = ("_fn", "_merged")

    def __init__(self, fn):
        self._fn = fn
        self._merged = 0

    @property
    def value(self):
        live = self._fn()
        return live if live > self._merged else self._merged

    def snapshot(self):
        return {"kind": "peak", "value": self.value}

    def merge(self, snap):
        if snap["value"] > self._merged:
            self._merged = snap["value"]


class DerivedRatio:
    """A ratio of two live readings, recomputed at snapshot time.

    For derived metrics like ``sim.kernel.events_per_request`` whose
    operands are themselves registered instruments: the operands merge
    across workers, the ratio never does — ``merge`` is a no-op and the
    live reading recomputes from the already-merged operands.  A
    division by zero reports 0.0 (no requests yet).
    """

    kind = "ratio"
    __slots__ = ("_num", "_den", "operands")

    def __init__(self, num, den, operands=None):
        self._num = num
        self._den = den
        #: ``(num_name, den_name)`` of registered operand instruments;
        #: rides in the snapshot so a receiving registry can re-derive
        #: the ratio from its own (merged) operands instead of holding
        #: one worker's stale quotient.
        self.operands = operands

    @property
    def value(self):
        den = self._den()
        return self._num() / den if den else 0.0

    def snapshot(self):
        snap = {"kind": "ratio", "value": self.value}
        if self.operands:
            snap["num"], snap["den"] = self.operands
        return snap

    def merge(self, snap):
        pass


class RatioHolder:
    """Accumulator twin of :class:`DerivedRatio` (latest reading wins).

    Materialized when a ratio snapshot arrives at a registry with no
    live instrument under that name — e.g. a worker's dump loaded
    standalone.  There are no operands to recompute from, so it simply
    holds the most recent value.
    """

    kind = "ratio"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def snapshot(self):
        return {"kind": "ratio", "value": self.value}

    def merge(self, snap):
        self.value = snap["value"]


class TimeWeightedGauge:
    """Tracks a piecewise-constant value; reports its time-weighted mean.

    ``clock`` is a zero-argument callable returning the current time
    (``repro.sim.stats.TimeWeightedGauge`` binds it to ``env.now``; the
    default clock is frozen at 0 for pure accumulators).  The internals
    (``_value``/``_area``/``_last_change``/``_start``/``_max``) are part
    of the performance contract: ``sim/resources.py`` updates them with
    inlined code on the hot path.
    """

    kind = "gauge"

    def __init__(self, clock=None, initial=0.0):
        self._clock = clock if clock is not None else _zero_clock
        now = self._clock()
        self._value = initial
        self._last_change = now
        self._area = 0.0
        self._start = now
        self._max = initial
        self._merged_area = 0.0
        self._merged_elapsed = 0.0

    @property
    def value(self):
        """Current gauge value."""
        return self._value

    def set(self, value):
        """Change the gauge value at the current time."""
        if value == self._value:
            # No-op update: the running area accrues at the same rate
            # either way, so defer the accrual to the next real change.
            return
        now = self._clock()
        self._area += self._value * (now - self._last_change)
        self._value = value
        self._last_change = now
        if value > self._max:
            self._max = value

    def _window(self):
        now = self._clock()
        area = self._area + self._value * (now - self._last_change)
        return area, now - self._start

    def mean(self):
        """Time-weighted mean since construction (merges included)."""
        area, elapsed = self._window()
        area += self._merged_area
        elapsed += self._merged_elapsed
        if elapsed <= 0:
            return self._value
        return area / elapsed

    def max(self):
        """Largest value seen since construction."""
        return self._max

    def snapshot(self):
        area, elapsed = self._window()
        return {
            "kind": "gauge",
            "area": area + self._merged_area,
            "elapsed": elapsed + self._merged_elapsed,
            "max": self._max,
        }

    def merge(self, snap):
        self._merged_area += snap["area"]
        self._merged_elapsed += snap["elapsed"]
        if snap["max"] > self._max:
            self._max = snap["max"]


def _zero_clock():
    return 0.0


class RateStat:
    """Pure event-count + elapsed-window accumulator (kind ``rate``).

    The live, clocked version is ``repro.sim.stats.RateMeter``; this is
    the registry-side accumulator that foreign rate snapshots merge
    into.  ``per_sec`` aggregates as total events over total (summed)
    window time.
    """

    kind = "rate"
    __slots__ = ("count", "elapsed")

    def __init__(self):
        self.count = 0
        self.elapsed = 0.0

    def per_us(self):
        if self.elapsed <= 0:
            return math.nan
        return self.count / self.elapsed

    def per_sec(self):
        return self.per_us() * 1e6

    def snapshot(self):
        return {"kind": "rate", "count": self.count, "elapsed": self.elapsed}

    def merge(self, snap):
        self.count += snap["count"]
        self.elapsed += snap["elapsed"]


class LogHistogram:
    """A mergeable log-bucketed histogram with a *fixed* bucket layout.

    The layout never varies with the data: :data:`BUCKETS_PER_DECADE`
    geometric buckets per factor of 10, spanning ``10**MIN_EXP`` ..
    ``10**MAX_EXP`` (values outside clamp to the edge buckets;
    non-positive values count in a dedicated ``zeros`` bucket).  A fixed
    layout is what makes ``merge`` associative and commutative across
    sweep workers: bucket counts add index-wise, with no re-binning.

    ``percentile`` returns the geometric midpoint of the bucket holding
    the requested order statistic (the ``numpy`` ``method="lower"``
    rank), so its relative error against the exact sample is bounded by
    half a bucket's width in log space: :data:`MAX_REL_ERROR` =
    ``10**(1 / (2 * BUCKETS_PER_DECADE)) - 1`` ≈ 7.5% (documented as
    ≤ 8%).
    """

    kind = "histogram"

    BUCKETS_PER_DECADE = 16
    MIN_EXP = -6   # smallest resolvable decade: 1e-6
    MAX_EXP = 12   # largest resolvable decade:  1e12
    NBUCKETS = (MAX_EXP - MIN_EXP) * BUCKETS_PER_DECADE
    MAX_REL_ERROR = 10.0 ** (1.0 / (2 * BUCKETS_PER_DECADE)) - 1.0

    __slots__ = ("count", "zeros", "sum", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.zeros = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.buckets = {}  # sparse: bucket offset (int) -> count

    @classmethod
    def bucket_index(cls, value):
        """Offset of the bucket holding *value* (> 0), clamped in range."""
        idx = (math.floor(math.log10(value) * cls.BUCKETS_PER_DECADE)
               - cls.MIN_EXP * cls.BUCKETS_PER_DECADE)
        if idx < 0:
            return 0
        if idx >= cls.NBUCKETS:
            return cls.NBUCKETS - 1
        return idx

    @classmethod
    def bucket_value(cls, index):
        """Geometric midpoint of the bucket at *index*."""
        exp = (index + cls.MIN_EXP * cls.BUCKETS_PER_DECADE + 0.5)
        return 10.0 ** (exp / cls.BUCKETS_PER_DECADE)

    def record(self, value, n=1):
        """Count *value*, *n* times."""
        self.count += n
        self.sum += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            self.zeros += n
            return
        idx = self.bucket_index(value)
        buckets = self.buckets
        buckets[idx] = buckets.get(idx, 0) + n

    def record_many(self, values):
        """Bulk-record an iterable/array of samples (vectorized)."""
        import numpy as np

        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.sum += float(arr.sum())
        lo = float(arr.min())
        hi = float(arr.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        positive = arr[arr > 0]
        self.zeros += int(arr.size - positive.size)
        if positive.size:
            idx = (np.floor(np.log10(positive) * self.BUCKETS_PER_DECADE)
                   .astype(np.int64)
                   - self.MIN_EXP * self.BUCKETS_PER_DECADE)
            np.clip(idx, 0, self.NBUCKETS - 1, out=idx)
            offsets, counts = np.unique(idx, return_counts=True)
            buckets = self.buckets
            for off, n in zip(offsets.tolist(), counts.tolist()):
                buckets[off] = buckets.get(off, 0) + n

    def mean(self):
        return self.sum / self.count if self.count else math.nan

    def percentile(self, q):
        """Estimated q-th percentile (q in [0, 100]).

        Uses the "lower" order statistic: rank ``floor((count-1)*q/100)``
        — matching ``np.percentile(..., method="lower")`` to within
        :data:`MAX_REL_ERROR` relative error.
        """
        if not self.count:
            return math.nan
        rank = math.floor((self.count - 1) * q / 100.0)
        if rank < self.zeros:
            return 0.0
        seen = self.zeros
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if rank < seen:
                return self.bucket_value(idx)
        return self.max if self.max is not None else math.nan

    def p50(self):
        return self.percentile(50)

    def p99(self):
        return self.percentile(99)

    def snapshot(self):
        # Bucket keys are strings so a snapshot compares equal to its
        # own JSON round-trip (JSON objects cannot have int keys).
        return {
            "kind": "histogram",
            "count": self.count,
            "zeros": self.zeros,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(idx): self.buckets[idx]
                        for idx in sorted(self.buckets)},
        }

    def merge(self, snap):
        self.count += snap["count"]
        self.zeros += snap.get("zeros", 0)
        self.sum += snap["sum"]
        if snap["min"] is not None and (self.min is None
                                        or snap["min"] < self.min):
            self.min = snap["min"]
        if snap["max"] is not None and (self.max is None
                                        or snap["max"] > self.max):
            self.max = snap["max"]
        buckets = self.buckets
        for key, n in snap["buckets"].items():
            idx = int(key)
            buckets[idx] = buckets.get(idx, 0) + n

    def reset(self):
        self.count = 0
        self.zeros = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.buckets.clear()


#: snapshot ``kind`` -> accumulator class used when a merge arrives for
#: a name with no live instrument (see ``MetricsRegistry.merge``).
_ACCUMULATORS = {
    "counter": Counter,
    "peak": PeakGauge,
    "gauge": TimeWeightedGauge,
    "rate": RateStat,
    "histogram": LogHistogram,
    "ratio": RatioHolder,
}


def materialize(snap):
    """Build a fresh accumulator instrument holding *snap*'s data."""
    try:
        cls = _ACCUMULATORS[snap["kind"]]
    except KeyError:
        raise ValueError("unknown instrument kind %r" % (snap.get("kind"),))
    inst = cls()
    inst.merge(snap)
    return inst
