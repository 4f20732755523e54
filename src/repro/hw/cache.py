"""Shared last-level cache interference (the §3.2 noisy neighbour).

The paper shows a memory-intensive co-tenant (an 1140x1140 integer
matmul that fills the Xeon's LLC) inflates a GPU-accelerated server's
p99 response latency 13x while itself slowing 21%.  The mechanism is
cache thrashing: the victim's per-request CPU work becomes slower *and*
far more variable.

We model it at task granularity: tasks executing on cores of a socket
declare a working-set size and a memory intensity in [0, 1].  While the
combined working set fits the LLC the penalty is 1.0.  Once it spills,
memory-intensive work picks up a multiplicative slowdown with a
heavy-tailed (lognormal) jitter.
"""

from ..errors import ConfigError


class LLCModel:
    """Shared cache of one CPU socket."""

    def __init__(self, env, size_bytes, profile, rng):
        if size_bytes <= 0:
            raise ConfigError("LLC size must be positive")
        self.env = env
        self.size_bytes = size_bytes
        self.profile = profile
        self._rng = rng
        self._working_sets = {}
        self._next_token = 0
        self._total = 0

    # -- occupancy bookkeeping ----------------------------------------------

    def occupy(self, working_set_bytes):
        """Register a resident working set; returns a release token."""
        token = self._next_token
        self._next_token += 1
        self._working_sets[token] = working_set_bytes
        self._total += working_set_bytes
        return token

    def release(self, token):
        self._total -= self._working_sets.pop(token, 0)

    @property
    def total_working_set(self):
        return self._total

    @property
    def pressure(self):
        """Fraction of demanded capacity beyond the LLC size, in [0, 1]."""
        total = self.total_working_set
        if total <= self.size_bytes:
            return 0.0
        return min(1.0, (total - self.size_bytes) / self.size_bytes)

    # -- penalties ------------------------------------------------------------

    def penalty(self, memory_intensity):
        """Multiplicative slowdown for a task with given memory intensity.

        Deterministic component scales with cache pressure; jitter is
        lognormal with unit mean so the *average* slowdown is governed
        by ``profile.mean_slowdown`` and the tail by ``jitter_sigma``.
        """
        if not 0.0 <= memory_intensity <= 1.0:
            raise ConfigError("memory_intensity must be in [0, 1]")
        pressure = self.pressure
        if pressure <= 0.0 or memory_intensity <= 0.0:
            return 1.0
        sigma = self.profile.jitter_sigma
        # lognormal with E[X] = 1: mu = -sigma^2/2
        jitter = self._rng.lognormal(-sigma * sigma / 2.0, sigma)
        base_extra = (self.profile.mean_slowdown - 1.0) * pressure
        return 1.0 + memory_intensity * base_extra * jitter

    def aggressor_penalty(self):
        """Slowdown of the cache-filling aggressor itself (§3.2: ~21%).

        The aggressor's working set spans the whole LLC, so any
        co-runner overflow evicts its lines: once the cache is
        over-subscribed at all, the full calibrated slowdown applies.
        """
        if self.pressure <= 0.02:
            return 1.0
        return self.profile.aggressor_slowdown

    def expected_penalty(self, memory_intensity):
        """Mean penalty (no jitter draw) — used by analytic tests."""
        return 1.0 + memory_intensity * (self.profile.mean_slowdown - 1.0) * self.pressure

