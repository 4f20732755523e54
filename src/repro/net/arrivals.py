"""Gap-at-a-time arrival processes for ``OpenLoopGenerator``.

The generator paces constant or Poisson load itself (sockperf's two
modes, the paper's methodology); the processes here override that
pacing with bursty (Markov-modulated on/off) and trace-replay gaps for
the ablations (e.g. ring sizing under bursts) and for downstream users
with their own traces.  Each yields successive inter-arrival gaps (us)
from ``next_gap()``.
"""

import csv
import os

from ..errors import ConfigError


def load_trace_timestamps(path):
    """Load arrival timestamps (us, ascending) from ``.npy`` or CSV.

    ``.npy`` files hold a 1-D float array.  CSV/text files hold one
    timestamp per row (a header row and extra columns are tolerated:
    the first field of each row that parses as a float is taken).
    Shared by :meth:`TraceReplay.from_file`, the population plane's
    :class:`~repro.net.population.TracePopulation`, and the CLI's
    ``--arrivals trace:<path>`` hook.
    """
    if not os.path.exists(path):
        raise ConfigError("trace file not found: %s" % path)
    if path.endswith(".npy"):
        import numpy as np

        stamps = np.load(path)
        if stamps.ndim != 1:
            raise ConfigError("trace %s: expected a 1-D array, got shape %r"
                              % (path, stamps.shape))
        return [float(t) for t in stamps]
    stamps = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                stamps.append(float(row[0]))
            except ValueError:
                if stamps:
                    raise ConfigError(
                        "trace %s: unparsable timestamp %r after %d rows"
                        % (path, row[0], len(stamps)))
                # else: header row — skip
    if len(stamps) < 2:
        raise ConfigError("trace %s: needs at least two timestamps" % path)
    return stamps


class OnOffBurst:
    """Markov-modulated on/off bursts.

    During an ON period arrivals come at ``burst_rate``; OFF periods are
    silent.  Mean period lengths are exponential.  The long-run average
    rate is ``burst_rate * on_mean / (on_mean + off_mean)``.
    """

    def __init__(self, burst_rate_per_us, on_mean_us, off_mean_us, rng):
        if burst_rate_per_us <= 0 or on_mean_us <= 0 or off_mean_us < 0:
            raise ConfigError("invalid on/off burst parameters")
        self.burst_rate = burst_rate_per_us
        self.on_mean = on_mean_us
        self.off_mean = off_mean_us
        self._rng = rng
        self._stream = "onoff-arrivals"
        self._remaining_on = 0.0

    @property
    def mean_rate(self):
        return (self.burst_rate * self.on_mean
                / (self.on_mean + self.off_mean))

    def next_gap(self):
        """Burst-rate gap, stretched by OFF periods at period ends."""
        gap = self._rng.exponential(self._stream, 1.0 / self.burst_rate)
        if self._remaining_on >= gap:
            self._remaining_on -= gap
            return gap
        # the ON period ends: insert an OFF gap and start a new period
        off = self._rng.exponential(self._stream + ".off", self.off_mean)
        leftover = gap - self._remaining_on
        self._remaining_on = self._rng.exponential(
            self._stream + ".on", self.on_mean)
        return leftover + off

    def __repr__(self):
        return "<OnOffBurst %.3f/us on=%.0fus off=%.0fus (mean %.3f/us)>" % (
            self.burst_rate, self.on_mean, self.off_mean, self.mean_rate)


class TraceReplay:
    """Replays recorded arrival timestamps (us, ascending), looping."""

    @classmethod
    def from_file(cls, path):
        """Build a replay from a ``.npy`` or CSV timestamp file.

        See :func:`load_trace_timestamps` for the accepted formats;
        the CLI's ``--arrivals trace:<path>`` rides this loader.
        """
        return cls(load_trace_timestamps(path))

    def __init__(self, timestamps):
        stamps = list(timestamps)
        if len(stamps) < 2:
            raise ConfigError("a trace needs at least two timestamps")
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            raise ConfigError("trace timestamps must be non-decreasing")
        self._gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        self._index = 0

    def next_gap(self):
        """Next recorded gap, looping over the trace."""
        gap = self._gaps[self._index]
        self._index = (self._index + 1) % len(self._gaps)
        return gap
