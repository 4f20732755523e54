"""Flyweight client-population traffic plane (DESIGN.md §4.13).

One :class:`ClientPopulation` stands in for millions of users behind a
ToR port.  Instead of one :class:`~repro.net.client.Client` object, one
``_waiters`` dict entry, and ~5 scheduler events per request, the
population models traffic as *aggregate* arrival processes and keeps
every per-request quantity in struct-of-arrays numpy columns:

* arrival times are pre-generated in chunks of ~:data:`CHUNK` via the
  conditional-uniform property of the Poisson process (within a
  constant-rate segment of duration ``D``, the count is
  ``Poisson(rate*D)`` and the times are sorted uniforms — exact, and
  fully vectorized).  Plain Poisson, MMPP on/off bursts, a diurnal
  phase envelope, and trace replay are all piecewise-constant-rate
  segment generators under this one scheme;
* request payloads come from a pre-built :class:`PayloadPool`
  (Zipf-sampled keys for memcached, pre-rendered tensors for the
  accelerator apps), sampled per chunk with one ``searchsorted``;
* in-flight requests live in an :class:`InFlightTable` — msg-id /
  send-time / deadline / stream-id columns, no per-request object —
  and response latencies are resolved in batches straight into
  telemetry :class:`~repro.telemetry.instruments.LogHistogram`\\ s via
  ``record_many``;
* injection is frame-coalesced: arrivals within ``coalesce_us`` of
  each other wake the population once and are pushed back-to-back onto
  the destination's wire channel, so on the wheel backend the whole
  frame collapses into one landing-table batch (O(1) scheduler events
  per burst, DESIGN.md §4.11).

Timing is calibrated to the scalar client path: a request created at
arrival time ``t`` reaches the wire channel at
``t + send_cost + wire_size/link_rate`` and its latency is recorded as
``now - t + recv_cost`` — the same instants and the same arithmetic as
``Client``/``OpenLoopGenerator``, which is what the golden parity test
in ``tests/net/test_population.py`` pins.
"""

import itertools
import math

import numpy as np

from .. import telemetry, units
from ..errors import ConfigError
from ..sim import Channel, RateMeter
from ..telemetry.instruments import LogHistogram
from .packet import Address, Message, UDP, UDP_HEADER, payload_size
from .arrivals import load_trace_timestamps

#: target arrivals per pre-generated chunk
CHUNK = 4096


def _segment_times(stream, start, duration, rate):
    """Arrival times of a Poisson(rate) process on [start, start+duration).

    Conditional-uniform sampling: draw the count, then sort uniforms.
    Exact (not an approximation) and one numpy call per segment.
    """
    n = int(stream.poisson(rate * duration))
    if n == 0:
        return _EMPTY
    times = stream.random(n)
    times *= duration
    times.sort()
    times += start
    return times


_EMPTY = np.empty(0, dtype=float)


class PopulationArrivals:
    """Vectorized arrival-time source: absolute times per window.

    Subclasses implement :meth:`take`, returning a sorted float array
    of arrival times in ``[start, until)``.  Windows are consumed
    monotonically (``start`` of one call is ``until`` of the previous),
    so sources may keep segment state between calls.  ``mean_rate`` is
    the long-run average (arrivals/us), used for chunk sizing;
    ``users`` is the modeled population size behind the aggregate
    (reporting only — the flyweight cost is independent of it).
    """

    mean_rate = 0.0
    users = 1

    def take(self, start, until):
        raise NotImplementedError


class PoissonPopulation(PopulationArrivals):
    """Aggregate Poisson arrivals: the superposition of ``users``
    independent user processes is itself Poisson at the summed rate."""

    def __init__(self, rate_per_us, stream, users=1):
        if rate_per_us <= 0:
            raise ConfigError("population rate must be positive")
        self.mean_rate = float(rate_per_us)
        self.users = int(users)
        self._stream = stream

    def take(self, start, until):
        return _segment_times(self._stream, start, until - start,
                              self.mean_rate)


class OnOffPopulation(PopulationArrivals):
    """MMPP on/off bursts: ON periods arrive at ``burst_rate``, OFF
    periods are silent, period lengths are exponential — the vectorized
    twin of :class:`~repro.net.arrivals.OnOffBurst`."""

    def __init__(self, burst_rate_per_us, on_mean_us, off_mean_us, stream,
                 users=1):
        if burst_rate_per_us <= 0 or on_mean_us <= 0 or off_mean_us < 0:
            raise ConfigError("invalid on/off burst parameters")
        self.burst_rate = float(burst_rate_per_us)
        self.on_mean = float(on_mean_us)
        self.off_mean = float(off_mean_us)
        self.mean_rate = (self.burst_rate * self.on_mean
                          / (self.on_mean + self.off_mean))
        self.users = int(users)
        self._stream = stream
        self._on = True
        self._left = float(stream.exponential(self.on_mean))

    def take(self, start, until):
        parts = []
        t = start
        stream = self._stream
        while t < until:
            seg = min(self._left, until - t)
            if self._on and seg > 0:
                times = _segment_times(stream, t, seg, self.burst_rate)
                if times.size:
                    parts.append(times)
            t += seg
            self._left -= seg
            if self._left <= 0.0:
                self._on = not self._on
                mean = self.on_mean if self._on else self.off_mean
                self._left = float(stream.exponential(mean)) if mean > 0 \
                    else 0.0
                if self._left <= 0.0 and not self._on:
                    self._on = True
                    self._left = float(stream.exponential(self.on_mean))
        if not parts:
            return _EMPTY
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class DiurnalPopulation(PopulationArrivals):
    """Poisson arrivals whose instantaneous rate follows a repeating
    piecewise-constant phase envelope (a day compressed to
    ``period_us``).  The envelope is normalized to mean 1.0, so
    ``mean_rate`` is the long-run average regardless of its shape."""

    #: default envelope: a trough-to-evening-peak "day" in 8 phases
    ENVELOPE = (0.35, 0.55, 0.9, 1.3, 1.5, 1.45, 1.0, 0.95)

    def __init__(self, mean_rate_per_us, period_us, stream, envelope=None,
                 users=1):
        if mean_rate_per_us <= 0 or period_us <= 0:
            raise ConfigError("invalid diurnal parameters")
        envelope = tuple(envelope if envelope is not None else self.ENVELOPE)
        if not envelope or any(e < 0 for e in envelope):
            raise ConfigError("envelope phases must be non-negative")
        scale = len(envelope) / sum(envelope)
        self.envelope = tuple(e * scale for e in envelope)
        self.mean_rate = float(mean_rate_per_us)
        self.period = float(period_us)
        self.users = int(users)
        self._stream = stream
        self._phase_len = self.period / len(self.envelope)

    def phase_multiplier(self, t):
        """The envelope multiplier in effect at absolute time *t*."""
        idx = int(t / self._phase_len) % len(self.envelope)
        return self.envelope[idx]

    def take(self, start, until):
        parts = []
        t = start
        plen = self._phase_len
        while t < until:
            # the phase boundary at or after t
            edge = (math.floor(t / plen) + 1) * plen
            seg_end = min(edge, until)
            rate = self.mean_rate * self.phase_multiplier(t)
            if rate > 0 and seg_end > t:
                times = _segment_times(self._stream, t, seg_end - t, rate)
                if times.size:
                    parts.append(times)
            t = seg_end
        if not parts:
            return _EMPTY
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class BModelPopulation(DiurnalPopulation):
    """Self-similar (b-model) arrivals: bursty at every timescale.

    Wang et al.'s b-model generates the canonical self-similar traffic
    profile by recursively splitting each interval's mass ``(b, 1-b)``
    between its halves, with the heavy side chosen by a fair coin per
    split (the randomized binomial-multiplicative cascade).  After
    ``levels`` splits one period decomposes into ``2**levels`` equal
    phases whose weights sum to 1 — bursts nest inside bursts, with
    Hurst parameter ``H ~ 1 - log2(b^2 + (1-b)^2)/2``.  ``b = 0.5``
    degenerates to plain Poisson; ``b -> 1`` concentrates the whole
    period's load into one slot.

    The resulting weight profile is a piecewise-constant rate envelope,
    so segment generation rides :class:`DiurnalPopulation`'s exact
    conditional-uniform machinery unchanged; the profile draws from
    *stream* at construction, making a (seed, b, levels) triple fully
    deterministic — what the golden tests pin.
    """

    def __init__(self, mean_rate_per_us, period_us, stream, b=0.7,
                 levels=7, users=1):
        if not 0.5 <= b < 1.0:
            raise ConfigError("b-model bias must be in [0.5, 1.0)")
        if not 1 <= levels <= 20:
            raise ConfigError("b-model levels must be in [1, 20]")
        weights = np.ones(1, dtype=float)
        for _ in range(int(levels)):
            heavy_left = stream.random(weights.size) < 0.5
            left = np.where(heavy_left, b, 1.0 - b)
            split = np.empty(weights.size * 2, dtype=float)
            split[0::2] = weights * left
            split[1::2] = weights * (1.0 - left)
            weights = split
        self.b = float(b)
        self.levels = int(levels)
        # weights sum to 1 by construction; scaling by the phase count
        # gives a mean-1.0 envelope (DiurnalPopulation re-normalizes,
        # which is a no-op here but keeps float round-off consistent).
        super().__init__(mean_rate_per_us, period_us, stream,
                         envelope=weights * weights.size, users=users)


class TracePopulation(PopulationArrivals):
    """Replays recorded arrival timestamps, looping — the vectorized
    twin of :class:`~repro.net.arrivals.TraceReplay` (same repeating-gap
    semantics).  ``rate_per_us`` rescales the gaps so the replayed
    long-run rate matches a target (bisection over trace-shaped load).
    """

    def __init__(self, timestamps, rate_per_us=None, users=1):
        stamps = np.asarray(list(timestamps), dtype=float)
        if stamps.size < 2:
            raise ConfigError("a trace needs at least two timestamps")
        gaps = np.diff(stamps)
        if (gaps < 0).any():
            raise ConfigError("trace timestamps must be non-decreasing")
        span = float(gaps.sum())
        if span <= 0:
            raise ConfigError("trace spans zero time")
        native = gaps.size / span
        if rate_per_us is not None:
            if rate_per_us <= 0:
                raise ConfigError("population rate must be positive")
            gaps = gaps * (native / rate_per_us)
            span = float(gaps.sum())
        #: arrival offsets within one replay cycle (first gap elapses
        #: before the first arrival, exactly like TraceReplay.next_gap)
        self._cycle = np.cumsum(gaps)
        self._span = span
        self._cycle_start = 0.0
        self.mean_rate = gaps.size / span
        self.users = int(users)

    @classmethod
    def from_file(cls, path, rate_per_us=None, users=1):
        """Load ``.npy`` or CSV timestamps (see ``TraceReplay.from_file``)."""
        return cls(load_trace_timestamps(path), rate_per_us=rate_per_us,
                   users=users)

    def take(self, start, until):
        parts = []
        while self._cycle_start < until:
            times = self._cycle + self._cycle_start
            lo = np.searchsorted(times, start, side="left")
            hi = np.searchsorted(times, until, side="left")
            if hi > lo:
                parts.append(times[lo:hi])
            if times[-1] < until:
                self._cycle_start += self._span
            else:
                break
        if not parts:
            return _EMPTY
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def arrival_factory(spec):
    """Parse an ``--arrivals`` spec into a ``make(rate, stream)`` factory.

    Specs: ``poisson`` | ``onoff[:on_us,off_us]`` | ``diurnal[:period_us]``
    | ``bmodel[:b[,levels]]`` | ``trace:<path>`` — each yields a factory
    producing a :class:`PopulationArrivals` whose long-run mean is the
    given rate, so one spec serves every trial of a sustainable-load
    bisection.
    """
    if spec.startswith("trace:"):
        path = spec[len("trace:"):]
        if not path:
            raise ConfigError("trace spec needs a path: trace:<path>")
        stamps = load_trace_timestamps(path)
        return lambda rate, stream: TracePopulation(stamps, rate_per_us=rate)
    kind, _, args = spec.partition(":")
    if kind == "poisson":
        return lambda rate, stream: PoissonPopulation(rate, stream)
    if kind == "onoff":
        on_us, off_us = (float(x) for x in args.split(",")) if args \
            else (200.0, 600.0)
        duty = on_us / (on_us + off_us)
        return lambda rate, stream: OnOffPopulation(
            rate / duty, on_us, off_us, stream)
    if kind == "diurnal":
        period = float(args) if args else 100000.0
        return lambda rate, stream: DiurnalPopulation(rate, period, stream)
    if kind == "bmodel":
        parts = args.split(",") if args else []
        b = float(parts[0]) if parts else 0.7
        levels = int(parts[1]) if len(parts) > 1 else 7
        return lambda rate, stream: BModelPopulation(
            rate, 100000.0, stream, b=b, levels=levels)
    raise ConfigError("unknown arrivals spec %r (poisson | onoff[:on,off] | "
                      "diurnal[:period] | bmodel[:b,levels] | trace:<path>)"
                      % (spec,))


class PayloadPool:
    """A flyweight payload library with vectorized key sampling.

    Holds the distinct request payloads once (e.g. one memcached GET
    per key) plus their sizes; :meth:`sample` draws per-arrival payload
    indices for a whole chunk with one inverse-CDF ``searchsorted``.
    """

    def __init__(self, payloads, stream=None, weights=None):
        if not payloads:
            raise ConfigError("payload pool cannot be empty")
        self.payloads = list(payloads)
        #: python ints (not numpy scalars): consumed in the per-message
        #: injection loop, where scalar conversion would cost
        self.sizes = [payload_size(p) for p in self.payloads]
        self._stream = stream
        self._cdf = None
        if weights is not None:
            w = np.asarray(list(weights), dtype=float)
            if w.size != len(self.payloads) or (w < 0).any() or w.sum() <= 0:
                raise ConfigError("invalid payload weights")
            self._cdf = np.cumsum(w) / w.sum()
        if len(self.payloads) > 1 and stream is None:
            raise ConfigError("a multi-payload pool needs an RNG stream")

    @classmethod
    def single(cls, payload):
        """A degenerate pool: every request carries *payload*."""
        return cls([payload])

    @classmethod
    def zipf(cls, payloads, stream, skew=0.99):
        """Zipf(skew) popularity over *payloads*: index i has rank i+1
        (the YCSB-style hot-key distribution for memcached)."""
        ranks = np.arange(1, len(payloads) + 1, dtype=float)
        return cls(payloads, stream=stream, weights=ranks ** -skew)

    @classmethod
    def uniform(cls, payloads, stream):
        """Equal-probability sampling over *payloads*."""
        return cls(payloads, stream=stream,
                   weights=np.ones(len(payloads)))

    def sample(self, n):
        """Payload indices for *n* arrivals (int64 array)."""
        if len(self.payloads) == 1:
            return np.zeros(n, dtype=np.int64)
        return np.searchsorted(self._cdf, self._stream.random(n),
                               side="right").astype(np.int64)


class Flow:
    """One traffic class inside a population: an arrival source plus a
    payload pool, recorded under its own latency histogram."""

    __slots__ = ("name", "arrivals", "payloads", "proto", "hist")

    def __init__(self, name, arrivals, payloads, proto=UDP):
        if proto != UDP:
            raise ConfigError("populations model UDP datagram traffic; "
                              "use Client/ClosedLoopGenerator for TCP")
        self.name = name
        self.arrivals = arrivals
        self.payloads = payloads
        self.proto = proto
        self.hist = LogHistogram()


class InFlightTable:
    """Struct-of-arrays in-flight request tracking.

    Columns: request ``msg_id`` (monotonically increasing — the global
    Message counter only moves forward), send time, deadline, flow
    (stream) id, and a done flag.  Appends stage into a python list and
    bulk-materialize into the columns at resolve/expiry boundaries (the
    landing-table pattern, DESIGN.md §4.11); responses resolve ids to
    rows with one ``searchsorted`` per batch.  No per-request objects,
    no ``_waiters`` dict.
    """

    def __init__(self, capacity=8192):
        self._grow_to(max(capacity, 64))
        self._n = 0
        self._live = 0
        self._staged = []

    def _grow_to(self, capacity):
        self._msg = np.zeros(capacity, dtype=np.int64)
        self._send = np.zeros(capacity, dtype=np.float64)
        self._deadline = np.zeros(capacity, dtype=np.float64)
        self._flow = np.zeros(capacity, dtype=np.int16)
        self._done = np.zeros(capacity, dtype=bool)

    def append(self, msg_id, send_time, deadline, flow):
        """Stage one in-flight request (materialized lazily)."""
        self._staged.append((msg_id, send_time, deadline, flow))
        self._live += 1

    def append_run(self, first_id, send_times, deadline_offset, flow):
        """Stage one injection frame of consecutive message ids.

        The pump creates a frame's Messages back to back, so their ids
        are ``first_id, first_id + 1, ...`` — one ``extend`` stages the
        whole run without per-message python calls.  A
        ``deadline_offset`` of None means no deadline.
        """
        if deadline_offset is None:
            deadlines = itertools.repeat(math.inf)
        else:
            deadlines = (t + deadline_offset for t in send_times)
        self._staged.extend(zip(itertools.count(first_id), send_times,
                                deadlines, itertools.repeat(flow)))
        self._live += len(send_times)

    @property
    def in_flight(self):
        """Requests sent and not yet resolved or expired."""
        return self._live

    def _materialize(self):
        staged = self._staged
        if not staged:
            return
        k = len(staged)
        n = self._n
        cap = self._msg.size
        if n + k > cap:
            self._compact(n + k)
            n = self._n
            cap = self._msg.size
        cols = np.asarray(staged, dtype=np.float64)
        self._msg[n:n + k] = cols[:, 0].astype(np.int64)
        self._send[n:n + k] = cols[:, 1]
        self._deadline[n:n + k] = cols[:, 2]
        self._flow[n:n + k] = cols[:, 3].astype(np.int16)
        self._done[n:n + k] = False
        self._n = n + k
        staged.clear()

    def _compact(self, need):
        """Drop resolved rows; grow if the live set still needs room."""
        n = self._n
        keep = ~self._done[:n]
        live = int(keep.sum())
        cap = self._msg.size
        while live + (need - n) > cap // 2:
            cap *= 2
        msg, send = self._msg[:n][keep], self._send[:n][keep]
        deadline, flow = self._deadline[:n][keep], self._flow[:n][keep]
        self._grow_to(cap)
        self._msg[:live] = msg
        self._send[:live] = send
        self._deadline[:live] = deadline
        self._flow[:live] = flow
        self._n = live

    def _rows_for(self, ids):
        """Live-row indices for *ids*; -1 where unknown or already done."""
        self._materialize()
        n = self._n
        if n == 0:
            return np.full(len(ids), -1, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        live = self._msg[:n]
        rows = np.searchsorted(live, ids)
        np.clip(rows, 0, n - 1, out=rows)
        bad = (live[rows] != ids) | self._done[rows]
        rows[bad] = -1
        return rows

    def resolve(self, ids, times):
        """Complete the requests answered by *ids* at *times*.

        Returns ``(latencies, flows, misses)``: raw response-minus-send
        latencies and flow ids for the matched rows (response order),
        plus the count of ids with no live row (late responses landing
        after their deadline sweep, duplicates).
        """
        rows = self._rows_for(ids)
        ok = rows >= 0
        hit = rows[ok]
        lat = np.asarray(times, dtype=float)[ok] - self._send[hit]
        flows = self._flow[hit]
        self._done[hit] = True
        self._live -= int(hit.size)
        return lat, flows, int(len(ids) - hit.size)

    def kill(self, ids):
        """Mark *ids* done without recording latency (error responses).

        Returns the number of ids that had a live row."""
        rows = self._rows_for(ids)
        hit = rows[rows >= 0]
        self._done[hit] = True
        self._live -= int(hit.size)
        return int(hit.size)

    def expire(self, now):
        """Time out every live row whose deadline has passed; returns
        the count.  Callers must resolve buffered responses first, or
        answered requests would be miscounted as timeouts."""
        self._materialize()
        n = self._n
        if n == 0:
            return 0
        view = self._done[:n]
        stale = ~view & (self._deadline[:n] <= now)
        count = int(stale.sum())
        if count:
            view[stale] = True
            self._live -= count
        return count


class _PopulationRxOp:
    """Batch response drain: one parked get on the population's RX
    channel; each wake drains everything immediately available via
    ``recv_batch`` and buffers (id, time) pairs for vectorized
    resolution — the population flushes the buffer in batches."""

    __slots__ = ("pop",)

    def __init__(self, pop):
        self.pop = pop
        pop.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        self.pop.rx.get().callbacks.append(self._on_msg)

    def _on_msg(self, get):
        pop = self.pop
        now = pop.env.now
        pop._ingest(get._value, now)
        more = pop.rx.recv_batch()
        if more:
            ingest = pop._ingest
            for msg in more:
                ingest(msg, now)
        if len(pop._resp_ids) >= pop.resolve_batch:
            pop._resolve_pending()
        self._arm()


class ClientPopulation:
    """A ToR port's worth of users as one flyweight network endpoint.

    Parameters mirror :class:`~repro.net.client.Client` where they
    model the same thing (``send_cost``/``recv_cost``/``link_rate``).
    ``flows`` is a list of :class:`Flow`; ``timeout`` (us) bounds each
    request's deadline column (``None`` disables expiry).
    ``coalesce_us`` frames injection wakeups: arrivals whose wire entry
    falls in the same frame are injected back-to-back at the frame's
    last entry time (0 = exact per-arrival wakeups).  Coalescing delay
    is *included* in recorded latency — the frame is part of the load
    generator's send machinery, exactly like NIC interrupt moderation.
    """

    def __init__(self, env, network, ip, dst, flows, link_rate=units.gbps(40),
                 send_cost=2.0, recv_cost=2.0, timeout=None, coalesce_us=1.0,
                 chunk=CHUNK, resolve_batch=256, src_addrs=64, name=None):
        if not flows:
            raise ConfigError("a population needs at least one flow")
        total = sum(f.arrivals.mean_rate for f in flows)
        if total <= 0:
            raise ConfigError("population mean rate must be positive")
        if coalesce_us < 0:
            raise ConfigError("coalesce_us must be >= 0")
        self.env = env
        self.network = network
        self.ip = ip
        self.dst = dst
        self.flows = list(flows)
        self.link_rate = link_rate
        self.send_cost = send_cost
        self.recv_cost = recv_cost
        self.timeout = timeout
        self.coalesce_us = coalesce_us
        self.resolve_batch = resolve_batch
        self.name = name or "population-%s" % ip
        self.mean_rate = total
        self.users = sum(f.arrivals.users for f in self.flows)
        #: chunk window width: ~`chunk` arrivals per refill
        self._width = max(chunk / total, 1e-9)
        self._cursor = env.now
        self.rx = Channel(env, name="%s-rx" % self.name)
        network.attach(ip, self)
        # Resolved now (the server must already be attached): injection
        # bypasses Network.deliver's routing kick and pushes straight
        # onto the fabric — the destination's wire channel on the
        # single-switch fabric (same channel, same latency, one event
        # less per request), or this ToR's uplink when the destination
        # lives in another rack (DESIGN.md §4.15).
        self._wire = network.inject_channel(ip, dst.ip)
        self._src = [Address(ip, 40001 + i) for i in range(src_addrs)]
        self._src_i = 0
        self.table = InFlightTable()
        # Current chunk (python lists: consumed element-wise in _fire)
        self._times = []
        self._keys = []
        self._streams = []
        self._frame_end = []
        self._frame_wake = []
        self._pos = 0
        self._frame = 0
        self._stopped = False
        # Pending response buffer (resolved in vectorized batches)
        self._resp_ids = []
        self._resp_times = []
        self._err_ids = []
        # Counters + instruments (DESIGN.md §4.9)
        self.offered = 0
        self.timeouts = 0
        self.errors = 0
        self.late = 0
        self.latency = LogHistogram()
        self.responses = RateMeter(env, name="%s-rate" % self.name)
        self.offered_meter = RateMeter(env, name="%s-offered" % self.name)
        reg = telemetry.registry()
        base = "net.population.%s." % ip
        reg.register(base + "latency", self.latency)
        reg.register(base + "responses", self.responses)
        reg.register(base + "offered", self.offered_meter)
        reg.pull(base + "timeouts", lambda: self.timeouts)
        reg.pull(base + "errors", lambda: self.errors)
        reg.pull(base + "late", lambda: self.late)
        for flow in self.flows:
            reg.register(base + "flow.%s.latency" % flow.name, flow.hist)
        _PopulationRxOp(self)
        env._kick(self._begin)

    # -- chunked arrival generation ---------------------------------------

    def _refill(self):
        """Generate the next non-empty chunk of arrivals (vectorized)."""
        header = UDP_HEADER
        for _ in range(10000):
            start = self._cursor
            until = start + self._width
            self._cursor = until
            times, keys, streams = [], [], []
            for fi, flow in enumerate(self.flows):
                t = flow.arrivals.take(start, until)
                if t.size:
                    times.append(t)
                    keys.append(flow.payloads.sample(t.size))
                    streams.append(np.full(t.size, fi, dtype=np.int16))
            if not times:
                continue
            t = np.concatenate(times) if len(times) > 1 else times[0]
            k = np.concatenate(keys) if len(keys) > 1 else keys[0]
            s = np.concatenate(streams) if len(streams) > 1 else streams[0]
            # Wire-entry instants: arrival + send cost + serialization.
            sizes = np.empty(t.size, dtype=float)
            for fi, flow in enumerate(self.flows):
                sel = s == fi
                if sel.any():
                    fsizes = np.asarray(flow.payloads.sizes, dtype=float)
                    sizes[sel] = fsizes[k[sel]]
            inject = t + self.send_cost + (sizes + header) / self.link_rate
            order = np.argsort(inject, kind="stable")
            t, k, s, inject = t[order], k[order], s[order], inject[order]
            # Frame boundaries: arrivals sharing floor(inject/coalesce)
            # wake the pump once and inject together.
            if self.coalesce_us > 0:
                frame_ids = np.floor(inject / self.coalesce_us)
                cuts = np.flatnonzero(np.diff(frame_ids)) + 1
            else:
                cuts = np.arange(1, t.size)
            ends = np.append(cuts, t.size)
            self._frame_end = ends.tolist()
            self._frame_wake = inject[ends - 1].tolist()
            self._times = t.tolist()
            self._keys = k.tolist()
            self._streams = s.tolist()
            self._pos = 0
            self._frame = 0
            return True
        raise ConfigError("no arrivals in 10000 consecutive windows "
                          "(population rate effectively zero)")

    # -- the pump ----------------------------------------------------------

    def _begin(self, _event):
        if self._stopped:
            return
        self._refill()
        self._arm()

    def _arm(self):
        delay = self._frame_wake[self._frame] - self.env.now
        self.env.defer(delay if delay > 0 else 0.0, self._fire)

    def _fire(self, _event):
        if self._stopped:
            return
        env = self.env
        table_append = self.table.append
        times, keys, streams = self._times, self._keys, self._streams
        flows = self.flows
        dst = self.dst
        srcs = self._src
        nsrc = len(srcs)
        deadline_for = self.timeout
        i = self._pos
        end = self._frame_end[self._frame]
        src_i = self._src_i
        frame = []
        frame_append = frame.append
        nbytes = 0
        inf = math.inf
        if len(flows) == 1:
            # Single-flow fast path: the flow's payload library, sizes,
            # and proto are loop invariants (every E17 trial, and any
            # homogeneous population, takes this branch), and the
            # frame's consecutive msg ids stage as one table run.
            base = i
            flow = flows[0]
            pl = flow.payloads.payloads
            sz = flow.payloads.sizes
            proto = flow.proto
            while i < end:
                t = times[i]
                key = keys[i]
                size = sz[key]
                msg = Message(src=srcs[src_i], dst=dst, payload=pl[key],
                              proto=proto, created_at=t, size=size)
                src_i = src_i + 1 if src_i + 1 < nsrc else 0
                frame_append(msg)
                nbytes += size + UDP_HEADER
                i += 1
            self.table.append_run(frame[0].msg_id, times[base:end],
                                  deadline_for, 0)
        else:
            while i < end:
                t = times[i]
                flow = flows[streams[i]]
                key = keys[i]
                msg = Message(src=srcs[src_i], dst=dst,
                              payload=flow.payloads.payloads[key],
                              proto=flow.proto, created_at=t,
                              size=flow.payloads.sizes[key])
                src_i = src_i + 1 if src_i + 1 < nsrc else 0
                table_append(msg.msg_id, t,
                             t + deadline_for
                             if deadline_for is not None else inf,
                             streams[i])
                frame_append(msg)
                nbytes += msg.size + UDP_HEADER
                i += 1
        # One landing event for the whole frame (Channel.push_many):
        # the burst costs O(1) scheduler events, and an idle RX ring
        # absorbs it as a single bulk extend.
        self._wire.push_many(frame, nbytes=nbytes)
        self._src_i = src_i
        n = end - self._pos
        self.offered += n
        self.offered_meter.count += n
        self._pos = end
        self._frame += 1
        if self._frame >= len(self._frame_wake):
            # Chunk exhausted: expiry sweep + next vectorized refill.
            if deadline_for is not None:
                self._resolve_pending()
                self.timeouts += self.table.expire(env.now)
            self._refill()
        self._arm()

    def stop(self):
        """Cease generating (in-flight responses still resolve)."""
        self._stopped = True

    # -- response path -----------------------------------------------------

    def _ingest(self, msg, now):
        """Buffer one response for batched resolution."""
        rid = msg.meta.get("in_reply_to")
        if rid is None:
            return
        if msg.kind == "response":
            self._resp_ids.append(rid)
            self._resp_times.append(now)
        else:
            self.errors += 1
            self._err_ids.append(rid)

    def _resolve_pending(self):
        """Vector-resolve the buffered responses into the histograms."""
        ids = self._resp_ids
        if ids:
            lat, flows, misses = self.table.resolve(ids, self._resp_times)
            self._resp_ids = []
            self._resp_times = []
            self.late += misses
            n = lat.size
            if n:
                lat = lat + self.recv_cost
                self.responses.count += n
                self.env.requests_completed += n
                self.latency.record_many(lat)
                if len(self.flows) == 1:
                    self.flows[0].hist.record_many(lat)
                else:
                    for fi, flow in enumerate(self.flows):
                        sel = flows == fi
                        if sel.any():
                            flow.hist.record_many(lat[sel])
        if self._err_ids:
            self.table.kill(self._err_ids)
            self._err_ids = []

    def flush(self):
        """Resolve everything buffered (call before reading stats)."""
        self._resolve_pending()

    # -- measurement surface -----------------------------------------------

    def reset(self, at_time=None):
        """Warmup cut: flush pending responses, then zero every
        instrument and counter (in-flight requests stay in flight —
        the same semantics as ``Client.latency.reset()``)."""
        self._resolve_pending()
        self.latency.reset(at_time)
        for flow in self.flows:
            flow.hist.reset(at_time)
        self.responses.reset(at_time)
        self.offered_meter.reset(at_time)
        self.offered = 0
        self.timeouts = 0
        self.errors = 0
        self.late = 0

    def delivered_per_sec(self):
        """Measured response rate (responses/s)."""
        self.flush()
        return self.responses.per_sec()

    def offered_per_sec(self):
        """Measured injection rate (requests/s)."""
        return self.offered_meter.per_sec()

    def percentile(self, q):
        """Latency percentile from the log-bucketed histogram (us)."""
        self.flush()
        return self.latency.percentile(q)

    def latency_summary(self):
        """Dict of the stats the SLO driver consumes."""
        self.flush()
        hist = self.latency
        return {
            "count": hist.count,
            "mean": hist.mean(),
            "p50": hist.percentile(50),
            "p90": hist.percentile(90),
            "p99": hist.percentile(99),
            "min": hist.min,
            "max": hist.max,
        }

    def __repr__(self):
        return "<ClientPopulation %s %.3f/us users=%d in_flight=%d>" % (
            self.ip, self.mean_rate, self.users, self.table.in_flight)
