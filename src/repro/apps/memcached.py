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

#: the port every server listens on
PORT = 11211
#: LLC pressure of a request's dict op: the memory-bound share of its
#: cost and the bytes it touches (0: the store fits beside the stack)
MEMORY_INTENSITY = 0.25
WORKING_SET = 0


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

    Takes the steps of the per-core generator process it replaced,
    kept as the parity reference in ``tests/apps/test_memcached.py``:
    the init kick, the RX-ring get, then three :meth:`CorePool.run_then`
    legs (stack receive, the store op at its calibrated cost, stack
    transmit at egress priority), and finally ``nic.send`` as one
    :meth:`Channel.transfer_then` hop.  A leg that finds its core or
    the NIC-TX slot idle is granted inline, without the generator's
    grant event (DESIGN.md §4.6 relay-collapse rule).  One op per
    worker core lives for the whole simulation, so serving allocates no
    frames and spawns no processes.
    """

    __slots__ = ("server", "env", "pool", "nic", "msg", "result",
                 "response")

    def __init__(self, server):
        self.server = server
        self.env = server.env
        self.pool = server.pool
        self.nic = server.nic
        self.msg = None
        self.result = None
        self.response = None
        # URGENT kick at now: the slot the worker Process's init used.
        self.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        self.nic.rx.get_then(self._on_msg)

    def _on_msg(self, msg):
        server = self.server
        nic = self.nic
        nic.rx_rate.count += 1              # inlined nic.recv() rate tick
        stack = server.stack
        if stack.handle_control(msg, nic) or msg.dst.port != server.port:
            self._arm()
            return
        self.msg = msg
        # stack.process_rx: trace, then the receive cost on the pool.
        if stack._tracer is not None:
            stack._tracer.emit(stack.name, "rx", msg.msg_id, msg.proto)
        self.pool.run_then(stack.rx_cost(msg), self._received)

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
        self.pool.run_then(cost, self._executed,
                           memory_intensity=MEMORY_INTENSITY,
                           working_set=WORKING_SET)

    def _executed(self):
        msg = self.msg
        response = msg.reply(self.result, self.env.now)
        self.msg = self.result = None
        if response.conn is not None:
            response.meta["tcp_seq"] = response.conn.next_seq(response.src)
        self.response = response
        # stack.process_tx: trace, then the transmit cost on the pool.
        stack = self.server.stack
        if stack._tracer is not None:
            stack._tracer.emit(stack.name, "tx", response.msg_id,
                               response.proto)
        self.pool.run_then(stack.tx_cost(response), self._replied,
                           priority=-1)

    def _replied(self):
        self.server.ops.count += 1          # inlined RateMeter.tick()
        self.nic.tx.transfer_then(self.response.wire_size, self._sent)

    def _sent(self):
        nic = self.nic
        response = self.response
        self.response = None
        nic.tx_rate.count += 1              # inlined RateMeter.tick()
        nic.network.deliver(response)
        self._arm()


class MemcachedServer:
    """The network-facing server bound to a platform's cores + stack."""

    def __init__(self, env, nic, pool, stack_profile, op_cost_fn=None):
        self.env = env
        self.nic = nic
        self.pool = pool
        self.port = PORT
        self.name = "memcached@%s:%d" % (nic.ip, PORT)
        self.stack = NetworkStack(env, pool, stack_profile,
                                  name="%s-stack" % self.name)
        self.stack.listen(PORT)
        self.store = KeyValueStore()
        #: per-op service cost in *platform* us (calibrated, Fig 9)
        self.op_cost = (DEFAULT_APP_TIMINGS.memcached_op_arm
                        if "arm" in pool.profile.name
                        else DEFAULT_APP_TIMINGS.memcached_op_xeon)
        #: optional per-request cost: ``op_cost_fn(msg, result) -> us``
        #: (heterogeneous service times, e.g. value-size-dependent ops
        #: in the cluster tier); ``None`` keeps the flat calibrated cost
        self.op_cost_fn = op_cost_fn
        self.ops = RateMeter(env, name="%s-ops" % self.name)
        # One serving loop per core (DESIGN.md §4.6: no Process).
        for _ in range(pool.count):
            _WorkerOp(self)
