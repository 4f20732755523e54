"""A memcached-style key-value server.

Two roles in the paper:

* the Face Verification server's database backend (§6.4), accessed over
  TCP via Lynx client mqueues;
* the co-tenant server workload of the Fig 9 efficiency experiment,
  running on host Xeon cores and/or on the Bluefield's ARM cores.

The store is real (an in-process dict of bytes); per-op CPU cost is
calibrated per platform (Fig 9: ~250 Ktps per Xeon core, ~400 Ktps for
the whole Bluefield at much higher latency).

Wire protocol (binary-ish, minimal):
    b"get \x00" + key                    -> value (or b"" miss)
    b"set \x00" + key + b"\x00" + value  -> b"STORED"
    b"del \x00" + key                    -> b"DELETED" / b"" miss
    b"stat\x00"                          -> b"items=<n> hits=<h> misses=<m>"
"""

from ..config import DEFAULT_APP_TIMINGS
from ..errors import ConfigError
from ..net.packet import TCP
from ..net.stack import NetworkStack
from ..sim import RateMeter

GET = b"get \x00"
SET = b"set \x00"
DELETE = b"del \x00"
STATS = b"stat\x00"
STORED = b"STORED"
DELETED = b"DELETED"
MISS = b""


def encode_get(key):
    return GET + bytes(key)


def encode_set(key, value):
    return SET + bytes(key) + b"\x00" + bytes(value)


def encode_delete(key):
    return DELETE + bytes(key)


def encode_stats():
    return STATS


class KeyValueStore:
    """The actual storage engine (exact, in-memory)."""

    def __init__(self):
        self._data = {}
        self.hits = 0
        self.misses = 0

    def execute(self, request):
        """Run one wire-format command; returns the response bytes."""
        request = bytes(request)
        if request.startswith(GET):
            key = request[len(GET):]
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return MISS
            self.hits += 1
            return value
        if request.startswith(SET):
            body = request[len(SET):]
            key, _, value = body.partition(b"\x00")
            self._data[key] = value
            return STORED
        if request.startswith(DELETE):
            key = request[len(DELETE):]
            if self._data.pop(key, None) is None:
                self.misses += 1
                return MISS
            return DELETED
        if request.startswith(STATS):
            return b"items=%d hits=%d misses=%d" % (
                len(self._data), self.hits, self.misses)
        raise ConfigError("bad memcached request %r" % request[:16])

    def preload(self, items):
        for key, value in items:
            self._data[bytes(key)] = bytes(value)

    def __len__(self):
        return len(self._data)


class _WorkerOp:
    """One memcached worker core as a callback state machine.

    Consumes exactly the event ids of the per-core generator process it
    replaced, kept as the parity reference in
    ``tests/apps/test_memcached.py`` (DESIGN.md §4.6 eid-mirroring
    rule): the init kick, the RX-ring get, then three
    ``CorePool.run_calibrated`` legs (stack receive, the store op at its
    calibrated cost, stack transmit at egress priority) as the same
    request/charge/release triples, and finally ``nic.send`` as the TX
    channel's issue request, occupancy charge and release.  One op per
    worker core lives for the whole simulation, so serving allocates no
    frames and spawns no processes.
    """

    __slots__ = ("server", "env", "pool", "nic", "msg", "result",
                 "response", "request", "duration", "mi", "ws", "token",
                 "then")

    def __init__(self, server):
        self.server = server
        self.env = server.env
        self.pool = server.pool
        self.nic = server.nic
        self.msg = None
        self.result = None
        self.response = None
        self.request = None
        self.duration = 0.0
        self.mi = 0.0
        self.ws = 0
        self.token = None
        #: the stage to run once the current pool leg completes
        self.then = None
        # URGENT kick at now: the slot the worker Process's init used.
        self.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        self.nic.rx.get().callbacks.append(self._on_msg)

    def _on_msg(self, get):
        server = self.server
        nic = self.nic
        nic.rx_rate.count += 1              # inlined nic.recv() rate tick
        msg = get._value
        stack = server.stack
        if stack.handle_control(msg, nic) or msg.dst.port != server.port:
            self._arm()
            return
        self.msg = msg
        # stack.process_rx: trace, then the receive cost on the pool.
        if stack._tracer is not None:
            stack._tracer.emit(stack.name, "rx", msg.msg_id, msg.proto)
        pool = self.pool
        self._run(stack.rx_cost(msg), 0, pool.default_memory_intensity,
                  pool.default_working_set, self._received)

    # -- one CorePool.run_calibrated leg ----------------------------------

    def _run(self, duration, priority, mi, ws, then):
        if duration < 0:
            raise ConfigError("negative duration")
        self.duration = duration
        self.mi = mi
        self.ws = ws
        self.then = then
        req = self.pool._res.request(priority)
        self.request = req
        req.callbacks.append(self._granted)

    def _granted(self, _event):
        llc = self.pool.llc
        duration = self.duration
        if llc is None or self.ws <= 0:
            if llc is not None and self.mi > 0:
                duration *= llc.penalty(self.mi)
        else:
            # _timed leg: LLC occupancy held for the span of the charge.
            self.token = llc.occupy(self.ws)
            if self.mi > 0:
                duration *= llc.penalty(self.mi)
        self.env.charge(duration).callbacks.append(self._charged)

    def _charged(self, _event):
        token = self.token
        if token is not None:
            self.pool.llc.release(token)
            self.token = None
        self.request.release()
        self.request = None
        then = self.then
        self.then = None
        then()

    # -- stages -----------------------------------------------------------

    def _received(self):
        server = self.server
        msg = self.msg
        if msg.proto == TCP and msg.conn is not None:
            msg.conn.deliver(msg)
        result = server.store.execute(msg.payload)
        self.result = result
        # The dict op itself plus the request parse: calibrated cost,
        # with the LLC pressure of a large working set.
        cost = (server.op_cost_fn(msg, result)
                if server.op_cost_fn is not None else server.op_cost)
        self._run(cost, 0, server.memory_intensity, server.working_set,
                  self._executed)

    def _executed(self):
        msg = self.msg
        response = msg.reply(self.result, created_at=self.env.now)
        self.msg = self.result = None
        if response.conn is not None:
            response.meta["tcp_seq"] = response.conn.next_seq(response.src)
        self.response = response
        pool = self.pool
        self._run(self.server.stack.tx_cost(response), -1,
                  pool.default_memory_intensity, pool.default_working_set,
                  self._replied)

    def _replied(self):
        self.server.ops.count += 1          # inlined RateMeter.tick()
        # nic.send -> tx.transfer: claim the port's issue slot and hold
        # it for the wire occupancy.
        req = self.nic.tx.issue.request()
        self.request = req
        req.callbacks.append(self._wire_granted)

    def _wire_granted(self, _event):
        tx = self.nic.tx
        charge = self.env.charge(tx.occupancy(self.response.wire_size))
        charge.callbacks.append(self._wire_charged)

    def _wire_charged(self, _event):
        self.request.release()
        self.request = None
        tx = self.nic.tx
        nbytes = self.response.wire_size
        tx.sent += 1                        # inlined Channel.transfer stats
        tx.bytes_moved += nbytes
        if tx._tracer is not None:
            tx._tracer.emit(tx.name, "xfer", None, nbytes)
        if tx.latency:
            self.env.charge(tx.latency).callbacks.append(self._wire_done)
        else:
            self._wire_done(None)

    def _wire_done(self, _event):
        nic = self.nic
        response = self.response
        self.response = None
        nic.tx_rate.count += 1              # inlined RateMeter.tick()
        nic.network.deliver(response)
        self._arm()


class MemcachedServer:
    """The network-facing server bound to a platform's cores + stack."""

    def __init__(self, env, nic, pool, stack_profile, port=11211,
                 op_cost=None, op_cost_fn=None, timings=DEFAULT_APP_TIMINGS,
                 memory_intensity=0.25, working_set=0, name=None):
        self.env = env
        self.nic = nic
        self.pool = pool
        self.port = port
        self.name = name or "memcached@%s:%d" % (nic.ip, port)
        self.stack = NetworkStack(env, pool, stack_profile,
                                  name="%s-stack" % self.name)
        self.stack.listen(port)
        self.store = KeyValueStore()
        #: per-op service cost in *platform* us (calibrated, Fig 9)
        if op_cost is None:
            op_cost = (timings.memcached_op_arm
                       if "arm" in pool.profile.name
                       else timings.memcached_op_xeon)
        self.op_cost = op_cost
        #: optional per-request cost: ``op_cost_fn(msg, result) -> us``
        #: (heterogeneous service times, e.g. value-size-dependent ops
        #: in the cluster tier); ``None`` keeps the flat calibrated cost
        self.op_cost_fn = op_cost_fn
        self.memory_intensity = memory_intensity
        self.working_set = working_set
        self.ops = RateMeter(env, name="%s-ops" % self.name)
        # One serving loop per core (DESIGN.md §4.6: no Process).
        for _ in range(pool.count):
            _WorkerOp(self)
