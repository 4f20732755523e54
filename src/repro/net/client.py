"""Load-generating clients (the role sockperf plays in the paper).

Clients are deliberately lightweight: the paper's client machines are
never the bottleneck, so we charge only a small fixed send cost and the
port serialization time.  Two drive modes match the paper's
methodology:

* :class:`OpenLoopGenerator` — Poisson arrivals at a target rate
  (latency-under-load measurements).
* :class:`ClosedLoopGenerator` — N outstanding requests, new request on
  each response (saturation throughput measurements).
"""

from .. import units
from ..errors import NetworkError
from ..sim import Channel, LatencyRecorder, RateMeter
from .. import telemetry
from .packet import Address, Message, TCP, UDP
from .stack import TcpConnection

#: client NIC line rate (bytes/us)
LINK_RATE = units.gbps(40)
#: sockperf-with-VMA userspace costs per message (us).  The receive
#: cost is *accounted* into recorded latency but not simulated as a
#: serialization point, so a single client can sink high response rates
#: (the paper uses two client machines).
SEND_COST = 2.0
RECV_COST = 2.0


class _SendOp:
    """One in-flight fire-and-forget send (callback twin of Client.send).

    Takes the steps of ``env.detached(client.send(msg))``: the
    serialization charge, then delivery.  The detached task's URGENT
    start kick only relayed to the charge, so :meth:`start` schedules
    the charge at once (DESIGN.md §4.6 relay-collapse rule).  Records
    are pooled on the client.
    """

    __slots__ = ("client", "msg")

    def __init__(self, client):
        self.client = client
        self.msg = None

    def start(self, msg):
        self.msg = msg
        client = self.client
        client.env.defer(client._send_delay(msg), self._sent)

    def _sent(self, _arg):
        client = self.client
        msg = self.msg
        self.msg = None
        pool = client._send_op_pool
        if len(pool) < 1024:
            pool.append(self)
        client._wire(msg)


class _ClientRxOp:
    """The client's response loop as a callback state machine.

    Mirrors the retired ``_rx_loop`` generator process: one RX-store get
    per message, latency accounting, waiter wake-up, re-arm.  A
    closed-loop request with no deadline registers its
    :class:`_ClosedLoopOp` as the waiter; the op is answered directly,
    after the re-arm, instead of through a per-request event that only
    relayed to it (DESIGN.md §4.6 relay-collapse rule).
    """

    __slots__ = ("client",)

    def __init__(self, client):
        self.client = client
        # URGENT kick at now: the slot the rx-loop Process's init used.
        client.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        self.client.rx.get_then(self._on_msg)

    def _on_msg(self, msg):
        client = self.client
        meta = msg._meta
        if meta is None:
            meta = {}
        kind = msg.kind
        if kind == "response":
            created = meta.get("request_created_at")
            if created is not None:
                client.latency._samples.append(
                    client.env.now - created + RECV_COST)
                client.responses.count += 1
            # The one place client-plane exchanges complete (feeds the
            # kernel's events-per-request figure).
            client.env.requests_completed += 1
        waiter = client._waiters.pop(meta.get("in_reply_to"), None)
        if waiter is None and kind == "tcp-synack":
            waiter = client._waiters.pop(("synack", msg.conn.conn_id), None)
        if type(waiter) is _ClosedLoopOp:
            # Re-arm first: the answer's own entries then follow the
            # next get's, as they followed the waiter event's.
            self._arm()
            waiter._settle(msg)
            return
        if waiter is not None and not waiter.triggered:
            waiter.succeed(msg)
        self._arm()


class Client:
    """One client host attached to the network."""

    def __init__(self, env, network, ip, name=None, rng=None):
        self.env = env
        self.network = network
        self.ip = ip
        self.name = name or "client-%s" % ip
        self.rng = rng
        self.rx = Channel(env, name="%s-rx" % self.name)
        self.latency = LatencyRecorder(name="%s-latency" % self.name)
        self.responses = RateMeter(env, name="%s-rate" % self.name)
        self.sent = RateMeter(env, name="%s-sent" % self.name)
        # Telemetry (DESIGN.md §4.9): the live recorder/meters double as
        # the registry instruments (the recorder snapshots as a
        # mergeable log-bucketed histogram; local samples stay exact).
        #: request attempts re-sent after a timeout or error response
        self.retries = 0
        reg = telemetry.registry()
        base = "net.client.%s." % ip
        reg.register(base + "latency", self.latency)
        reg.register(base + "responses", self.responses)
        reg.register(base + "sent", self.sent)
        reg.pull(base + "retries", lambda: self.retries)
        self._waiters = {}
        self._next_port = 40000
        self._send_op_pool = []
        network.attach(ip, self)
        _ClientRxOp(self)

    # -- raw I/O ---------------------------------------------------------------

    def _source_address(self):
        self._next_port += 1
        if self._next_port > 65000:
            self._next_port = 40001
        return Address(self.ip, self._next_port)

    def send(self, msg):
        """Generator: serialize *msg* onto the wire."""
        yield self.env.timeout(self._send_delay(msg))
        self._wire(msg)

    def _send_delay(self, msg):
        """Stamp *msg*'s TCP sequence and return its send cost; the
        caller charges it, then hands *msg* to :meth:`_wire`."""
        if msg.conn is not None and not msg.kind.startswith("tcp-"):
            msg.meta["tcp_seq"] = msg.conn.next_seq(msg.src)
        return SEND_COST + msg.wire_size / LINK_RATE

    def _wire(self, msg):
        self.sent.count += 1          # inlined RateMeter.tick()
        self.network.deliver(msg)

    def send_async(self, msg):
        """Fire-and-forget :meth:`send` (zero-allocation steady state)."""
        pool = self._send_op_pool
        op = pool.pop() if pool else _SendOp(self)
        op.start(msg)

    # -- request/response ---------------------------------------------------

    def _open_syn(self, dst):
        """A TCP SYN to *dst* plus the waiter its synack resolves."""
        src = self._source_address()
        conn = TcpConnection(client=src, server=dst)
        syn = Message(src=src, dst=dst, payload=b"", proto=TCP,
                      created_at=self.env.now, conn=conn, kind="tcp-syn")
        syn.meta["conn"] = conn
        waiter = self.env.event()
        self._waiters[("synack", conn.conn_id)] = waiter
        return syn, waiter

    def _established(self, conn, dst):
        # The RX loop pops the synack entry on arrival; this defensive
        # pop keeps the waiter table empty even if the entry was
        # resolved some other way (dict ops consume no schedule slots).
        self._waiters.pop(("synack", conn.conn_id), None)
        if not conn.established:
            raise NetworkError("TCP handshake failed to %s" % (dst,))
        return conn

    def _open_request(self, payload, dst, proto, conn, waiter=None):
        """One request attempt's message plus the waiter its response
        resolves: *waiter* if given (a :class:`_ClosedLoopOp` answered
        directly), else a fresh event."""
        src = conn.client if conn is not None else self._source_address()
        msg = Message(src, dst, payload, proto, self.env.now, None, conn)
        if waiter is None:
            waiter = self.env.event()
        self._waiters[msg.msg_id] = waiter
        return msg, waiter

    def connect(self, dst):
        """Generator: establish a TCP connection to *dst*; returns it."""
        syn, waiter = self._open_syn(dst)
        yield from self.send(syn)
        yield waiter
        return self._established(syn.conn, dst)

    def request(self, payload, dst, proto=UDP, conn=None, timeout=None,
                retries=0, retry_backoff=None):
        """Generator: send one request and wait for its response.

        Returns the response message, or None when every attempt timed
        out (UDP requests may be dropped by a saturated server).  The
        response may be error-kind — e.g. the Lynx server shedding for
        a dark accelerator — which callers treat as a failure.  Retries
        and per-attempt deadlines follow :class:`RetryPolicy`.
        """
        env = self.env
        policy = RetryPolicy(timeout, retries, retry_backoff)
        timeout = policy.timeout
        attempt = 0
        while True:
            attempt += 1
            msg, waiter = self._open_request(payload, dst, proto, conn)
            yield from self.send(msg)
            if timeout is None:
                response = yield waiter
            else:
                expiry = env.timeout(timeout)
                result = yield env.any_of([waiter, expiry])
                response = result[waiter] if waiter in result else None
            # The RX loop pops the entry when a response arrives; this
            # pop covers the timeout path and is defensive elsewhere, so
            # the waiter table stays empty under mixed traffic.
            self._waiters.pop(msg.msg_id, None)
            delay = policy.retry_delay(self, attempt, response)
            if delay is None:
                return response
            yield env.timeout(delay)


class RetryPolicy:
    """Per-attempt deadline and retry backoff of a client request.

    With ``retries`` > 0 a failed attempt (timeout or error-kind
    response) is re-sent up to that many extra times, after an
    exponential backoff with ±50% jitter drawn from the client's
    simulation RNG so runs stay reproducible.  The base delay is
    ``retry_backoff`` (default: the timeout, else 1000us).

    A retrying request always carries a per-attempt deadline: with
    ``retries`` > 0 and no explicit ``timeout``, the deadline defaults
    to twice the backoff base — otherwise a lost UDP request would park
    the waiter forever and the retry budget could never fire.
    """

    __slots__ = ("timeout", "retries", "backoff")

    def __init__(self, timeout=None, retries=0, retry_backoff=None):
        if retries > 0 and timeout is None:
            timeout = 2.0 * (retry_backoff if retry_backoff is not None
                             else 1000.0)
        #: per-attempt deadline in us (None: wait indefinitely)
        self.timeout = timeout
        self.retries = retries
        self.backoff = retry_backoff

    def retry_delay(self, client, attempt, response):
        """Settle attempt number *attempt* (1-based) of *client*'s
        request, which got *response* (None on a timeout).

        Returns None when the request is finished — it succeeded, or
        the retry budget is spent — and otherwise the backoff before
        the next attempt, counting the retry on the client.
        """
        if response is not None and response.kind != "error":
            if attempt > 1:
                # Lazily created: E01-E15 metric snapshots must not
                # grow a counter no fault run ever touched.
                telemetry.registry().counter(
                    "faults.recovered.client_retry").inc()
            return None
        if attempt > self.retries:
            return None
        client.retries += 1
        base = self.backoff if self.backoff is not None \
            else (self.timeout if self.timeout else 1000.0)
        delay = base * (2 ** (attempt - 1))
        if client.rng is not None:
            delay *= client.rng.uniform("client.retry.%s" % client.ip,
                                        0.5, 1.5)
        return delay


class OpenLoopGenerator:
    """Poisson (or uniform) arrivals at a fixed offered rate."""

    def __init__(self, env, client, dst, rate_per_us, payload_fn,
                 proto=UDP, conn=None, poisson=True):
        if rate_per_us <= 0:
            raise NetworkError("open-loop rate must be positive")
        self.env = env
        self.client = client
        self.dst = dst
        self.rate = rate_per_us
        self.payload_fn = payload_fn
        self.proto = proto
        self.conn = conn
        self.poisson = poisson
        self.name = "openloop->%s" % (dst,)
        self._stopped = False
        self.offered = 0
        # Callback state machine standing in for the old arrival Process
        # (same init kick, same charge per gap, same send kick).
        env._kick(self._begin)

    def stop(self):
        self._stopped = True

    def _interarrival(self):
        mean = 1.0 / self.rate
        if self.poisson and self.client.rng is not None:
            return self.client.rng.exponential(self.name, mean)
        return mean

    def _begin(self, _event):
        if not self._stopped:
            self.env.defer(self._interarrival(), self._fire)

    def _fire(self, _arg):
        if self._stopped:
            return
        env = self.env
        payload = self.payload_fn(self.offered)
        src = (self.conn.client if self.conn is not None
               else self.client._source_address())
        msg = Message(src, self.dst, payload, self.proto, env.now, None,
                      self.conn)
        self.offered += 1
        # Fire and forget: the arrival process must not be throttled
        # by per-message send cost, or high offered rates would be
        # silently capped below the target.
        self.client.send_async(msg)
        env.defer(self._interarrival(), self._fire)


class _ClosedLoopOp:
    """One closed-loop worker as a callback state machine.

    Takes the steps of the worker generator process it replaced, kept
    as the parity reference in ``tests/net/test_client.py``: the init
    kick, the optional TCP connect (SYN send charge, synack waiter),
    then per request :meth:`Client.request`'s slots — send charge, the
    response waiter (raced against an ``env.timeout`` deadline in an
    ``env.any_of`` when the policy has one), the backoff timeout of each
    retry.  With no deadline the op itself is the waiter, and the RX op
    answers it without the waiter event that only relayed the response
    (DESIGN.md §4.6 relay-collapse rule): one event fewer per request
    than the generator.  Stopping schedules the event a finished
    Process would.
    """

    __slots__ = ("gen", "index", "conn", "seq", "payload", "attempt",
                 "msg", "waiter")

    def __init__(self, gen, index):
        self.gen = gen
        self.index = index
        self.conn = None
        self.seq = 0
        self.payload = None
        self.attempt = 0
        self.msg = None
        self.waiter = None
        # URGENT kick at now: the slot the worker Process's init used.
        gen.env._kick(self._begin)

    def _begin(self, _event):
        gen = self.gen
        if gen.proto != TCP:
            self._next()
            return
        syn, waiter = gen.client._open_syn(gen.dst)
        self.msg = syn
        self.waiter = waiter
        gen.env.defer(gen.client._send_delay(syn), self._syn_sent)

    def _syn_sent(self, _arg):
        self.gen.client._wire(self.msg)
        self.waiter.callbacks.append(self._synack)

    def _synack(self, _event):
        gen = self.gen
        syn = self.msg
        self.msg = self.waiter = None
        self.conn = gen.client._established(syn.conn, gen.dst)
        self._next()

    def _next(self):
        """Top of the worker loop: issue the next request, or finish."""
        gen = self.gen
        if gen._stopped:
            # The termination event the finished worker Process fired.
            gen.env.event().succeed()
            return
        self.payload = gen.payload_fn(self.index * 1000000 + self.seq)
        self.seq += 1
        self.attempt = 0
        self._attempt()

    def _attempt(self, _arg=None):
        gen = self.gen
        client = gen.client
        self.attempt += 1
        msg, waiter = client._open_request(
            self.payload, gen.dst, gen.proto, self.conn,
            self if gen.policy.timeout is None else None)
        self.msg = msg
        self.waiter = waiter
        gen.env.defer(client._send_delay(msg), self._sent)

    def _sent(self, _arg):
        gen = self.gen
        gen.client._wire(self.msg)
        timeout = gen.policy.timeout
        # With no deadline the RX op answers through _settle directly.
        if timeout is not None:
            env = gen.env
            expiry = env.timeout(timeout)
            env.any_of([self.waiter, expiry]).callbacks.append(self._raced)

    def _raced(self, race):
        result = race._value
        waiter = self.waiter
        self._settle(result[waiter] if waiter in result else None)

    def _settle(self, response):
        gen = self.gen
        client = gen.client
        # Covers the timeout path; defensive elsewhere (the RX loop pops
        # answered entries), so the waiter table stays empty.
        client._waiters.pop(self.msg.msg_id, None)
        self.msg = self.waiter = None
        if (self.attempt > 1 or response is None
                or response.kind == "error"):
            # A first-attempt success needs no policy: it is done.
            delay = gen.policy.retry_delay(client, self.attempt, response)
            if delay is not None:
                gen.env.defer(delay, self._attempt)
                return
        if response is None:
            gen.timeouts += 1
        elif response.kind == "error":
            gen.errors += 1
        else:
            gen.completed += 1
        self._next()


class ClosedLoopGenerator:
    """N workers, each with one outstanding request at a time."""

    def __init__(self, env, client, dst, concurrency, payload_fn, proto=UDP,
                 timeout=None, retries=0, retry_backoff=None):
        self.env = env
        self.client = client
        self.dst = dst
        self.concurrency = concurrency
        self.payload_fn = payload_fn
        self.proto = proto
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.policy = RetryPolicy(timeout, retries, retry_backoff)
        self.name = "closedloop->%s" % (dst,)
        self._stopped = False
        self.completed = 0
        self.timeouts = 0
        self.errors = 0
        for i in range(concurrency):
            _ClosedLoopOp(self, i)

    def stop(self):
        self._stopped = True
