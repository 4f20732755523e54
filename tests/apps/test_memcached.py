"""memcached-style KV server."""

import pytest

from repro import Testbed, telemetry
from repro.apps import memcached
from repro.apps.memcached import (
    KeyValueStore,
    MemcachedServer,
    MISS,
    STORED,
    encode_get,
    encode_set,
)
from repro.config import DEFAULT_CONFIG, XEON_VMA
from repro.errors import ConfigError
from repro.net import Address, ClosedLoopGenerator
from repro.net.packet import TCP, UDP
from repro.sim import Resource


class TestKeyValueStore:
    def test_set_then_get(self):
        store = KeyValueStore()
        assert store.execute(encode_set(b"k", b"v")) == STORED
        assert store.execute(encode_get(b"k")) == b"v"
        assert store.hits == 1

    def test_miss(self):
        store = KeyValueStore()
        assert store.execute(encode_get(b"nope")) == MISS
        assert store.misses == 1

    def test_binary_safe_values(self):
        store = KeyValueStore()
        value = bytes(range(256))
        store.execute(encode_set(b"bin", value))
        assert store.execute(encode_get(b"bin")) == value

    def test_bad_request_rejected(self):
        with pytest.raises(ConfigError):
            KeyValueStore().execute(b"DELETE everything")

    def test_preload(self):
        store = KeyValueStore()
        store.preload([(b"a", b"1"), (b"b", b"2")])
        assert len(store) == 2


def build_server(cores=2):
    tb = Testbed()
    host = tb.machine("10.0.0.2")
    pool = host.pool(count=cores, name="mc")
    server = MemcachedServer(tb.env, host.nic, pool, XEON_VMA)
    return tb, server


class TestMemcachedServer:
    def test_udp_get_set_roundtrip(self):
        tb, server = build_server()
        client = tb.client("10.0.1.1")
        results = []

        def run(env):
            addr = Address("10.0.0.2", 11211)
            r = yield from client.request(encode_set(b"k1", b"hello"), addr,
                                          proto=UDP)
            results.append(bytes(r.payload))
            r = yield from client.request(encode_get(b"k1"), addr, proto=UDP)
            results.append(bytes(r.payload))

        tb.env.process(run(tb.env))
        tb.run(until=10000)
        assert results == [STORED, b"hello"]

    def test_tcp_access(self):
        tb, server = build_server()
        client = tb.client("10.0.1.1")
        gen = ClosedLoopGenerator(tb.env, client, Address("10.0.0.2", 11211),
                                  concurrency=2,
                                  payload_fn=lambda i: encode_get(b"missing"),
                                  proto=TCP)
        tb.run(until=30000)
        assert gen.completed > 20
        assert server.store.misses > 20

    def test_throughput_scales_with_cores(self):
        """Fig 9's premise: memcached scales linearly with CPU cores."""
        rates = {}
        for cores in (1, 2, 4):
            tb, server = build_server(cores=cores)
            clients = [tb.client("10.0.1.%d" % i) for i in range(1, 4)]
            for c in clients:
                ClosedLoopGenerator(tb.env, c, Address("10.0.0.2", 11211),
                                    concurrency=16,
                                    payload_fn=lambda i: encode_get(b"x"),
                                    proto=UDP)
            tb.warmup_then_measure([server.ops], 5000, 30000)
            rates[cores] = server.ops.per_sec()
        assert rates[2] > rates[1] * 1.6
        assert rates[4] > rates[2] * 1.6

    def test_xeon_core_rate_matches_calibration(self):
        """Fig 9: ~250 Ktps per Xeon core."""
        tb, server = build_server(cores=1)
        clients = [tb.client("10.0.1.%d" % i) for i in range(1, 4)]
        for c in clients:
            ClosedLoopGenerator(tb.env, c, Address("10.0.0.2", 11211),
                                concurrency=16,
                                payload_fn=lambda i: encode_get(b"x"),
                                proto=UDP)
        tb.warmup_then_measure([server.ops], 5000, 30000)
        assert server.ops.per_sec() == pytest.approx(250000, rel=0.25)


def _reference_worker(server):
    """The retired ``MemcachedServer._worker`` generator process, kept
    as the parity oracle for the ``_WorkerOp`` state machine."""
    while True:
        msg = yield server.nic.recv()
        if server.stack.handle_control(msg, server.nic):
            continue
        if msg.dst.port != server.port:
            continue
        yield from server.stack.process_rx(msg)
        result = server.store.execute(msg.payload)
        yield from server.pool.run_calibrated(
            server.op_cost_fn(msg, result) if server.op_cost_fn is not None
            else server.op_cost,
            memory_intensity=memcached.MEMORY_INTENSITY,
            working_set=memcached.WORKING_SET)
        response = msg.reply(result, created_at=server.env.now)
        if response.conn is not None:
            response.meta["tcp_seq"] = response.conn.next_seq(response.src)
        # process_tx's trace record, with the cost at egress priority
        stack = server.stack
        if stack._tracer is not None:
            stack._tracer.emit(stack.name, "tx", response.msg_id,
                               response.proto)
        yield from server.pool.run_calibrated(stack.tx_cost(response),
                                              priority=-1)
        server.ops.tick()
        yield from server.nic.send(response)


def _payload(i):
    key = b"key-%d" % (i % 7)
    return encode_set(key, b"v" * (i % 50)) if i % 3 == 0 else encode_get(key)


def _cotenant(env, pool):
    """Background work on the serving pool, so the cores are contended
    and the egress priority decides who runs next."""
    while True:
        yield from pool.run_calibrated(3.0)
        yield env.timeout(0.5)


def _serve(monkeypatch, reference, proto=UDP, trace=False,
           stray=False, llc=None, **server_kw):
    """Drive a two-core memcached with two closed-loop clients; return
    everything observable: response timestamps, counters, the trace and
    the kernel's event-id sequence, plus the number of claims that
    found a core or the NIC-TX slot idle through ``acquire_then`` or
    ``try_hold`` (each runs inline, without the grant event a
    ``Request`` schedules).
    *llc* overrides the module's ``(WORKING_SET, MEMORY_INTENSITY)``."""
    idle_grants = []
    acquire_then = Resource.acquire_then
    try_hold = Resource.try_hold

    def counting(res, callback, priority=0):
        if res.in_use < res.capacity and not res.waiting:
            idle_grants.append(res.name)
        acquire_then(res, callback, priority)

    def counting_hold(res, duration, handler, arg=None):
        held = try_hold(res, duration, handler, arg)
        if held:
            idle_grants.append(res.name)
        return held

    with telemetry.scope(), monkeypatch.context() as patch:
        patch.setattr(Resource, "acquire_then", counting)
        patch.setattr(Resource, "try_hold", counting_hold)
        if llc is not None:
            patch.setattr(memcached, "WORKING_SET", llc[0])
            patch.setattr(memcached, "MEMORY_INTENSITY", llc[1])
        if reference:
            patch.setattr(memcached, "_WorkerOp", lambda server:
                          server.env.process(_reference_worker(server)))
        tb = Testbed(config=DEFAULT_CONFIG.with_(trace=trace), seed=3)
        env = tb.env
        host = tb.machine("10.0.0.2")
        pool = host.pool(count=2, name="mc")
        server = MemcachedServer(env, host.nic, pool, XEON_VMA, **server_kw)
        for _ in range(2):
            env.process(_cotenant(env, pool))
        clients = [tb.client("10.0.1.%d" % i) for i in (1, 2)]
        for client, depth in zip(clients, (3, 2)):
            ClosedLoopGenerator(env, client, Address("10.0.0.2", 11211),
                                concurrency=depth, payload_fn=_payload,
                                proto=proto)
        if stray:
            # A SYN to a closed port and a datagram to an unserved one.
            env.process(clients[0].connect(Address("10.0.0.2", 9999)))
            env.process(clients[1].request(
                b"x", Address("10.0.0.2", 9998), timeout=50.0))
        tb.run(until=3000)
    ids = {}
    records = [(t, chan, event, ids.setdefault(mid, len(ids)), detail)
               for t, chan, event, mid, detail in tb.tracer.records]
    return (env._eid, env.events_processed,
            [tuple(c.latency._samples) for c in clients],
            server.ops.count, server.store.hits, server.store.misses,
            host.nic.tx.sent, host.nic.tx.bytes_moved,
            server.stack.closed_port_drops, records), len(idle_grants)


class TestWorkerParity:
    """The ``_WorkerOp`` state machine takes the steps of the generator
    it replaced, on the paths no benchmark workload runs; each of its
    idle-core or idle-NIC claims is granted inline, one event id fewer
    than the generator's ``Request`` grant."""

    @pytest.mark.parametrize("case", [
        dict(proto=TCP),
        dict(llc=(12 << 20, 0.5)),
        dict(op_cost_fn=lambda msg, result: 1.0 + 0.05 * len(result)),
        dict(stray=True),
        dict(trace=True),
    ], ids=["tcp", "working-set", "op-cost-fn", "closed-port", "traced"])
    def test_matches_reference_generator(self, monkeypatch, case):
        got, idle_op = _serve(monkeypatch, reference=False, **case)
        want, idle_ref = _serve(monkeypatch, reference=True, **case)
        collapsed = idle_op - idle_ref
        assert idle_ref == 0 and collapsed > 0
        assert got[0] == want[0] - collapsed
        assert got[1] == want[1] - collapsed
        assert got[2:] == want[2:]
        assert got[3] > 50                      # it really served
        if case.get("stray"):
            assert got[8] == 1
        if case.get("trace"):
            assert got[9]


class TestExtendedProtocol:
    def test_delete_existing(self):
        from repro.apps.memcached import DELETED, encode_delete

        store = KeyValueStore()
        store.execute(encode_set(b"k", b"v"))
        assert store.execute(encode_delete(b"k")) == DELETED
        assert store.execute(encode_get(b"k")) == MISS

    def test_delete_missing_counts_miss(self):
        from repro.apps.memcached import encode_delete

        store = KeyValueStore()
        assert store.execute(encode_delete(b"nope")) == MISS
        assert store.misses == 1

    def test_stats(self):
        from repro.apps.memcached import encode_stats

        store = KeyValueStore()
        store.execute(encode_set(b"a", b"1"))
        store.execute(encode_get(b"a"))
        store.execute(encode_get(b"b"))
        assert store.execute(encode_stats()) == b"items=1 hits=1 misses=1"
