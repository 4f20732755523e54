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
  fully vectorized).  Plain Poisson and MMPP on/off bursts are both
  piecewise-constant-rate segment generators under this one scheme;
* request payloads come from a pre-built :class:`PayloadPool`
  (Zipf-sampled keys for memcached, pre-rendered tensors for the
  accelerator apps), sampled per chunk with one ``searchsorted``;
* in-flight requests live in an :class:`InFlightTable` — msg-id /
  send-time / deadline columns, no per-request object, each row staged
  with plain list appends (most frames hold one arrival) — and response
  latencies are resolved in batches straight into a telemetry
  :class:`~repro.telemetry.instruments.LogHistogram` via
  ``record_many``;
* injection is frame-coalesced: arrivals within ``coalesce_us`` of
  each other wake the population once and ride one
  ``Channel.push_many`` landing onto the destination's wire channel
  (O(1) scheduler events per burst, DESIGN.md §4.13).

Timing is calibrated to the scalar client path: a request created at
arrival time ``t`` reaches the wire channel at
``t + send_cost + wire_size/link_rate`` and its latency is recorded as
``now - t + recv_cost`` — the same instants and the same arithmetic as
``Client``/``OpenLoopGenerator``, which is what the golden parity test
in ``tests/net/test_population.py`` pins.
"""

import math

import numpy as np

from .. import telemetry
from ..errors import ConfigError
from ..sim import Channel, RateMeter
from ..telemetry.instruments import LogHistogram
from .packet import Address, Message, UDP, UDP_HEADER, payload_size
from .client import LINK_RATE, RECV_COST, SEND_COST

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
    the long-run average (arrivals/us), used for chunk sizing.
    """

    mean_rate = 0.0

    def take(self, start, until):
        raise NotImplementedError


class PoissonPopulation(PopulationArrivals):
    """Aggregate Poisson arrivals: the superposition of any number of
    independent user processes is itself Poisson at the summed rate."""

    def __init__(self, rate_per_us, stream):
        if rate_per_us <= 0:
            raise ConfigError("population rate must be positive")
        self.mean_rate = float(rate_per_us)
        self._stream = stream

    def take(self, start, until):
        return _segment_times(self._stream, start, until - start,
                              self.mean_rate)


class OnOffPopulation(PopulationArrivals):
    """MMPP on/off bursts: ON periods arrive at ``burst_rate``, OFF
    periods are silent, period lengths are exponential."""

    def __init__(self, burst_rate_per_us, on_mean_us, off_mean_us, stream):
        if burst_rate_per_us <= 0 or on_mean_us <= 0 or off_mean_us < 0:
            raise ConfigError("invalid on/off burst parameters")
        self.burst_rate = float(burst_rate_per_us)
        self.on_mean = float(on_mean_us)
        self.off_mean = float(off_mean_us)
        self.mean_rate = (self.burst_rate * self.on_mean
                          / (self.on_mean + self.off_mean))
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


class PayloadPool:
    """A flyweight payload library with vectorized key sampling.

    Holds the distinct request payloads once (e.g. one memcached GET
    per key) plus their sizes; :meth:`sample` draws per-arrival payload
    indices for a whole chunk with one inverse-CDF ``searchsorted``.
    Without *weights* every payload is equally likely.
    """

    def __init__(self, payloads, stream=None, weights=None):
        if not payloads:
            raise ConfigError("payload pool cannot be empty")
        self.payloads = list(payloads)
        #: python ints (not numpy scalars): consumed in the per-message
        #: injection loop, where scalar conversion would cost
        self.sizes = [payload_size(p) for p in self.payloads]
        self._stream = stream
        if weights is None:
            weights = np.ones(len(self.payloads))
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
        return cls(payloads, stream=stream)

    def sample(self, n):
        """Payload indices for *n* arrivals (int64 array)."""
        if len(self.payloads) == 1:
            return np.zeros(n, dtype=np.int64)
        return np.searchsorted(self._cdf, self._stream.random(n),
                               side="right").astype(np.int64)


class InFlightTable:
    """Struct-of-arrays in-flight request tracking.

    Columns: request ``msg_id`` (monotonically increasing — the global
    Message counter only moves forward), send time and deadline, plus a
    done flag.  Injection frames stage into one python list per column
    and bulk-materialize into the columns at resolve/expiry boundaries;
    responses resolve ids to rows with one ``searchsorted`` per batch.
    No per-request objects, no ``_waiters`` dict.
    """

    #: rows allocated up front; compaction grows the columns past it
    CAPACITY = 8192

    def __init__(self):
        self._grow_to(self.CAPACITY)
        self._n = 0
        self._live = 0
        #: staged rows, one list per column (see append_run)
        self._staged_msg = []
        self._staged_send = []
        self._staged_deadline = []

    def _grow_to(self, capacity):
        self._msg = np.zeros(capacity, dtype=np.int64)
        self._send = np.zeros(capacity, dtype=np.float64)
        self._deadline = np.zeros(capacity, dtype=np.float64)
        self._done = np.zeros(capacity, dtype=bool)

    def append_run(self, first_id, send_times, deadline_offset):
        """Stage one injection frame of consecutive message ids.

        The pump creates a frame's Messages back to back, so their ids
        are ``first_id, first_id + 1, ...``.  Most frames hold one
        arrival, so each row is staged with plain appends to the three
        column lists, building no iterator per frame.  A
        ``deadline_offset`` of None means no deadline.
        """
        msg = self._staged_msg
        send = self._staged_send
        deadline = self._staged_deadline
        for t in send_times:
            msg.append(first_id)
            first_id += 1
            send.append(t)
            deadline.append(math.inf if deadline_offset is None
                            else t + deadline_offset)
        self._live += len(send_times)

    @property
    def in_flight(self):
        """Requests sent and not yet resolved or expired."""
        return self._live

    def _materialize(self):
        staged = self._staged_msg
        if not staged:
            return
        k = len(staged)
        n = self._n
        cap = self._msg.size
        if n + k > cap:
            self._compact(n + k)
            n = self._n
            cap = self._msg.size
        self._msg[n:n + k] = staged
        self._send[n:n + k] = self._staged_send
        self._deadline[n:n + k] = self._staged_deadline
        self._done[n:n + k] = False
        self._n = n + k
        staged.clear()
        self._staged_send.clear()
        self._staged_deadline.clear()

    def _compact(self, need):
        """Drop resolved rows; grow if the live set still needs room."""
        n = self._n
        keep = ~self._done[:n]
        live = int(keep.sum())
        cap = self._msg.size
        while live + (need - n) > cap // 2:
            cap *= 2
        msg, send = self._msg[:n][keep], self._send[:n][keep]
        deadline = self._deadline[:n][keep]
        self._grow_to(cap)
        self._msg[:live] = msg
        self._send[:live] = send
        self._deadline[:live] = deadline
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

        Returns ``(latencies, misses)``: raw response-minus-send
        latencies for the matched rows (response order), plus the count
        of ids with no live row (late responses landing after their
        deadline sweep, duplicates).
        """
        rows = self._rows_for(ids)
        ok = rows >= 0
        hit = rows[ok]
        lat = np.asarray(times, dtype=float)[ok] - self._send[hit]
        self._done[hit] = True
        self._live -= int(hit.size)
        return lat, int(len(ids) - hit.size)

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


#: buffered responses that trigger one vectorized resolve
RESOLVE_BATCH = 256
#: source ports a population rotates its requests over (40001, ...)
SRC_ADDRS = 64


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
        self.pop.rx.get_then(self._on_msg)

    def _on_msg(self, msg):
        pop = self.pop
        now = pop.env.now
        pop._ingest(msg, now)
        more = pop.rx.recv_batch()
        if more:
            ingest = pop._ingest
            for msg in more:
                ingest(msg, now)
        if len(pop._resp_ids) >= RESOLVE_BATCH:
            pop._resolve_pending()
        self._arm()


class ClientPopulation:
    """A ToR port's worth of users as one flyweight network endpoint.

    Sends UDP datagrams at the instants of one *arrivals* source
    (a :class:`PopulationArrivals`), each carrying a payload drawn from
    one :class:`PayloadPool`.  Send and receive costs and the line rate
    are :class:`~repro.net.client.Client`'s.  ``timeout`` (us)
    bounds each request's deadline column (``None`` disables expiry).
    """

    #: injection frame width (us): arrivals whose wire entry falls in
    #: the same frame are injected back-to-back at the frame's last
    #: entry time (0 = exact per-arrival wakeups).  Coalescing delay is
    #: *included* in recorded latency — the frame is part of the load
    #: generator's send machinery, exactly like NIC interrupt moderation.
    coalesce_us = 1.0

    def __init__(self, env, network, ip, dst, arrivals, payloads,
                 timeout=None):
        if arrivals.mean_rate <= 0:
            raise ConfigError("population mean rate must be positive")
        self.env = env
        self.network = network
        self.ip = ip
        self.dst = dst
        self.arrivals = arrivals
        self.payloads = payloads
        self.timeout = timeout
        self.name = "population-%s" % ip
        self.mean_rate = arrivals.mean_rate
        #: chunk window width: ~CHUNK arrivals per refill
        self._width = max(CHUNK / self.mean_rate, 1e-9)
        self._cursor = env.now
        #: payload sizes as floats, for the vectorized wire-entry instants
        self._sizes = np.asarray(payloads.sizes, dtype=float)
        self.rx = Channel(env, name="%s-rx" % self.name)
        network.attach(ip, self)
        # Resolved now (the server must already be attached): injection
        # skips Network.deliver's per-frame route lookup and pushes
        # straight onto the fabric — the destination's wire channel on
        # the single-switch fabric (same channel, same latency), or this
        # ToR's uplink when the destination lives in another rack
        # (DESIGN.md §4.15).
        self._wire = network.inject_channel(ip, dst.ip)
        self._src = [Address(ip, 40001 + i) for i in range(SRC_ADDRS)]
        self._src_i = 0
        self.table = InFlightTable()
        # Current chunk (python lists: consumed element-wise in _fire)
        self._times = []
        self._keys = []
        self._frame_end = []
        self._frame_wake = []
        self._pos = 0
        self._frame = 0
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
        _PopulationRxOp(self)
        env._kick(self._begin)

    # -- chunked arrival generation ---------------------------------------

    def _refill(self):
        """Generate the next non-empty chunk of arrivals (vectorized)."""
        for _ in range(10000):
            start = self._cursor
            until = start + self._width
            self._cursor = until
            t = self.arrivals.take(start, until)
            if not t.size:
                continue
            k = self.payloads.sample(t.size)
            # Wire-entry instants: arrival + send cost + serialization.
            inject = (t + SEND_COST
                      + (self._sizes[k] + UDP_HEADER) / LINK_RATE)
            order = np.argsort(inject, kind="stable")
            t, k, inject = t[order], k[order], inject[order]
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
            self._pos = 0
            self._frame = 0
            return
        raise ConfigError("no arrivals in 10000 consecutive windows "
                          "(population rate effectively zero)")

    # -- the pump ----------------------------------------------------------

    def _begin(self, _event):
        self._refill()
        self._arm()

    def _arm(self):
        delay = self._frame_wake[self._frame] - self.env.now
        self.env.defer(delay if delay > 0 else 0.0, self._fire)

    def _fire(self, _event):
        times, keys = self._times, self._keys
        payloads, sizes = self.payloads.payloads, self.payloads.sizes
        dst = self.dst
        srcs = self._src
        nsrc = SRC_ADDRS
        start = i = self._pos
        end = self._frame_end[self._frame]
        src_i = self._src_i
        frame = []
        frame_append = frame.append
        nbytes = 0
        while i < end:
            key = keys[i]
            size = sizes[key]
            frame_append(Message(srcs[src_i], dst, payloads[key], UDP,
                                 times[i], size))
            src_i = src_i + 1 if src_i + 1 < nsrc else 0
            nbytes += size + UDP_HEADER
            i += 1
        # The frame's Messages were created back to back, so their ids
        # are consecutive: the table stages them as one run.
        self.table.append_run(frame[0].msg_id, times[start:end],
                              self.timeout)
        # One landing event for the whole frame (Channel.push_many):
        # the burst costs O(1) scheduler events, and an idle RX ring
        # absorbs it as a single bulk extend.
        self._wire.push_many(frame, nbytes=nbytes)
        self._src_i = src_i
        n = end - start
        self.offered += n
        self.offered_meter.count += n
        self._pos = end
        self._frame += 1
        if self._frame >= len(self._frame_wake):
            # Chunk exhausted: expiry sweep + next vectorized refill.
            if self.timeout is not None:
                self._resolve_pending()
                self.timeouts += self.table.expire(self.env.now)
            self._refill()
        self._arm()

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
        """Vector-resolve the buffered responses into the histogram."""
        ids = self._resp_ids
        if ids:
            lat, misses = self.table.resolve(ids, self._resp_times)
            self._resp_ids = []
            self._resp_times = []
            self.late += misses
            n = lat.size
            if n:
                self.responses.count += n
                self.env.requests_completed += n
                self.latency.record_many(lat + RECV_COST)
        if self._err_ids:
            self.table.kill(self._err_ids)
            self._err_ids = []

    def flush(self):
        """Resolve everything buffered (call before reading stats)."""
        self._resolve_pending()

    # -- measurement surface -----------------------------------------------

    def reset(self):
        """Warmup cut: flush pending responses, then zero every
        instrument and counter (in-flight requests stay in flight —
        the same semantics as ``Client.latency.reset()``)."""
        self._resolve_pending()
        self.latency.reset()
        self.responses.reset()
        self.offered_meter.reset()
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
        return "<ClientPopulation %s %.3f/us in_flight=%d>" % (
            self.ip, self.mean_rate, self.table.in_flight)
