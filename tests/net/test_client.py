"""Load-generator clients (sockperf role)."""

import pytest

from repro import telemetry
from repro.config import XEON_E5_2620, XEON_VMA
from repro.hw.cpu import CorePool
from repro.hw.nic import Nic
from repro.net import (
    Address,
    Client,
    ClosedLoopGenerator,
    Network,
    OpenLoopGenerator,
)
from repro.net import client as client_mod
from repro.net.packet import TCP, UDP
from repro.net.stack import NetworkStack
from repro.sim import Environment, RngRegistry


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def network(env):
    return Network(env)


class _EchoServer:
    """Minimal in-test UDP echo server on a NIC."""

    def __init__(self, env, network, ip, port, delay=5.0):
        self.nic = Nic(env, network, ip)
        self.delay = delay
        self.env = env
        pool = CorePool(env, XEON_E5_2620, count=4)
        self.stack = NetworkStack(env, pool, XEON_VMA)
        self.stack.listen(port)
        env.process(self._loop())

    def _loop(self):
        while True:
            msg = yield self.nic.recv()
            if self.stack.handle_control(msg, self.nic):
                continue
            yield self.env.timeout(self.delay)
            yield from self.nic.send(
                msg.reply(msg.payload, created_at=self.env.now))


class TestClosedLoop:
    def test_request_response_and_latency(self, env, network):
        _EchoServer(env, network, "10.0.0.1", 7777)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        gen = ClosedLoopGenerator(env, client, Address("10.0.0.1", 7777),
                                  concurrency=2, payload_fn=lambda i: b"ping",
                                  proto=UDP)
        env.run(until=1000)
        assert gen.completed > 10
        assert client.latency.count == client.responses.count
        assert client.latency.p50() > 5.0  # at least the server delay

    def test_timeouts_counted_when_server_missing(self, env, network):
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        gen = ClosedLoopGenerator(env, client, Address("10.9.9.9", 7777),
                                  concurrency=1, payload_fn=lambda i: b"ping",
                                  proto=UDP, timeout=50)
        env.run(until=500)
        assert gen.timeouts >= 5
        assert gen.completed == 0


class TestOpenLoop:
    def test_offered_rate_close_to_target(self, env, network):
        _EchoServer(env, network, "10.0.0.1", 7777, delay=0.0)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        gen = OpenLoopGenerator(env, client, Address("10.0.0.1", 7777),
                                rate_per_us=0.05, payload_fn=lambda i: b"p",
                                proto=UDP)
        env.run(until=20000)
        measured = gen.offered / 20000
        assert measured == pytest.approx(0.05, rel=0.15)

    def test_stop_halts_generation(self, env, network):
        _EchoServer(env, network, "10.0.0.1", 7777, delay=0.0)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        gen = OpenLoopGenerator(env, client, Address("10.0.0.1", 7777),
                                rate_per_us=0.01, payload_fn=lambda i: b"p",
                                proto=UDP)
        env.run(until=1000)
        gen.stop()
        offered_at_stop = gen.offered
        env.run(until=3000)
        assert gen.offered <= offered_at_stop + 1

    def test_latency_includes_client_processing(self, env, network):
        _EchoServer(env, network, "10.0.0.1", 7777, delay=0.0)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0),
                        send_cost=2.0, recv_cost=3.0)
        gen = ClosedLoopGenerator(env, client, Address("10.0.0.1", 7777),
                                  concurrency=1, payload_fn=lambda i: b"p",
                                  proto=UDP)
        env.run(until=500)
        # send_cost elapses in-path; recv_cost is accounted in.
        assert client.latency.min() >= 2.0 + 3.0


class _FlakyEchoServer(_EchoServer):
    """Echo server that fails requests until *heal_at*: drops them
    (``fail="drop"``) or answers with an error-kind reply."""

    def __init__(self, env, network, ip, port, heal_at, fail="drop",
                 delay=5.0):
        self.heal_at = heal_at
        self.fail = fail
        super().__init__(env, network, ip, port, delay=delay)

    def _loop(self):
        while True:
            msg = yield self.nic.recv()
            if self.stack.handle_control(msg, self.nic):
                continue
            yield self.env.timeout(self.delay)
            if self.env.now < self.heal_at:
                if self.fail == "drop":
                    continue
                yield from self.nic.send(
                    msg.reply(b"", created_at=self.env.now, size=0,
                              kind="error"))
                continue
            yield from self.nic.send(
                msg.reply(msg.payload, created_at=self.env.now))


class TestWaiterHygiene:
    """Regression for the _waiters leaks: every request path — success
    with and without a timeout, timed-out, error-response, and the TCP
    handshake — must leave the waiter table empty once quiesced."""

    def _assert_clean_after(self, env, network, server_kw, gen_kw,
                            until=4000):
        _EchoServer(env, network, "10.0.0.1", 7777, **server_kw)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        gen = ClosedLoopGenerator(env, client, Address("10.0.0.1", 7777),
                                  concurrency=2,
                                  payload_fn=lambda i: b"ping", **gen_kw)
        env.run(until=until)
        gen.stop()
        env.run(until=until + 2000)
        assert gen.completed > 0
        assert client._waiters == {}
        return client, gen

    def test_success_without_timeout(self, env, network):
        self._assert_clean_after(env, network, {}, {"proto": UDP})

    def test_success_with_timeout(self, env, network):
        # The leak this PR fixes: a response beating its timeout used to
        # leave the expired entry in _waiters forever.
        client, gen = self._assert_clean_after(
            env, network, {}, {"proto": UDP, "timeout": 1000})
        assert gen.timeouts == 0

    def test_tcp_handshake_entries_cleaned(self, env, network):
        self._assert_clean_after(env, network, {}, {"proto": TCP})

    def test_mixed_timeouts_and_successes(self, env, network):
        # Server drops everything before t=1500: early requests time
        # out, later ones succeed; both paths must clean up.
        _FlakyEchoServer(env, network, "10.0.0.1", 7777, heal_at=1500)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        gen = ClosedLoopGenerator(env, client, Address("10.0.0.1", 7777),
                                  concurrency=2,
                                  payload_fn=lambda i: b"ping", proto=UDP,
                                  timeout=200)
        env.run(until=4000)
        gen.stop()
        env.run(until=6000)
        assert gen.timeouts > 0 and gen.completed > 0
        assert client._waiters == {}


class TestRetries:
    def test_retries_recover_dropped_requests(self, env, network):
        _FlakyEchoServer(env, network, "10.0.0.1", 7777, heal_at=300)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        results = []

        def one(env):
            response = yield from client.request(
                b"ping", Address("10.0.0.1", 7777), proto=UDP,
                timeout=150, retries=5, retry_backoff=100.0)
            results.append(response)

        env.process(one(env))
        env.run(until=5000)
        assert results and results[0] is not None
        assert results[0].kind == "response"
        assert client.retries > 0

    def test_error_responses_trigger_retry(self, env, network):
        _FlakyEchoServer(env, network, "10.0.0.1", 7777, heal_at=300,
                         fail="error")
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        gen = ClosedLoopGenerator(env, client, Address("10.0.0.1", 7777),
                                  concurrency=1,
                                  payload_fn=lambda i: b"ping", proto=UDP,
                                  timeout=500, retries=4,
                                  retry_backoff=100.0)
        env.run(until=4000)
        assert client.retries > 0
        assert gen.errors == 0          # retries absorbed every error
        assert gen.completed > 0

    def test_exhausted_retries_surface_the_failure(self, env, network):
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        gen = ClosedLoopGenerator(env, client, Address("10.9.9.9", 7777),
                                  concurrency=1,
                                  payload_fn=lambda i: b"ping", proto=UDP,
                                  timeout=50, retries=2, retry_backoff=50.0)
        env.run(until=2000)
        assert gen.timeouts > 0
        assert client.retries >= 2 * gen.timeouts
        assert client._waiters == {}

    def test_zero_retries_is_event_identical_to_before(self, env, network):
        # retries=0 must consume the exact schedule slots of the old
        # single-shot path: pin via the kernel's event-id sequence.
        def run_once(retries_kw):
            env2 = Environment()
            net2 = Network(env2)
            _EchoServer(env2, net2, "10.0.0.1", 7777)
            client = Client(env2, net2, "10.0.1.1", rng=RngRegistry(0))
            gen = ClosedLoopGenerator(env2, client,
                                      Address("10.0.0.1", 7777),
                                      concurrency=2,
                                      payload_fn=lambda i: b"ping",
                                      proto=UDP, timeout=500, **retries_kw)
            env2.run(until=3000)
            return env2._eid, tuple(client.latency._samples), gen.completed

        assert run_once({}) == run_once({"retries": 0})

    def test_retries_without_timeout_get_a_default_deadline(self, env,
                                                            network):
        # Regression: retries>0 with no explicit timeout used to park
        # the waiter forever on the first dropped request — no deadline
        # ever fired, so the retry budget was unreachable.
        _FlakyEchoServer(env, network, "10.0.0.1", 7777, heal_at=500)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        results = []

        def one(env):
            response = yield from client.request(
                b"ping", Address("10.0.0.1", 7777), proto=UDP,
                retries=5, retry_backoff=150.0)
            results.append(response)

        env.process(one(env))
        env.run(until=8000)
        assert results and results[0] is not None
        assert results[0].kind == "response"
        assert client.retries > 0
        assert client._waiters == {}

    def test_no_retries_no_timeout_still_waits_indefinitely(self, env,
                                                            network):
        # The default deadline is scoped to retrying requests only: a
        # bare request keeps the historical wait-forever semantics.
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        results = []

        def one(env):
            response = yield from client.request(
                b"ping", Address("10.9.9.9", 7777), proto=UDP)
            results.append(response)

        env.process(one(env))
        env.run(until=5000)
        assert results == []
        assert len(client._waiters) == 1

    def test_retry_backoff_is_seeded_deterministic(self, env, network):
        def run_once():
            env2 = Environment()
            net2 = Network(env2)
            _FlakyEchoServer(env2, net2, "10.0.0.1", 7777, heal_at=800)
            client = Client(env2, net2, "10.0.1.1", rng=RngRegistry(9))
            gen = ClosedLoopGenerator(env2, client,
                                      Address("10.0.0.1", 7777),
                                      concurrency=2,
                                      payload_fn=lambda i: b"ping",
                                      proto=UDP, timeout=150, retries=4,
                                      retry_backoff=120.0)
            env2.run(until=4000)
            return (env2._eid, client.retries,
                    tuple(client.latency._samples))

        assert run_once() == run_once()


def _reference_worker(gen, index):
    """The retired ``ClosedLoopGenerator._worker`` generator process,
    kept as the parity oracle for the ``_ClosedLoopOp`` state machine."""
    env = gen.env
    conn = None
    if gen.use_tcp_connections:
        conn = yield from gen.client.connect(gen.dst)
    seq = 0
    while not gen._stopped:
        payload = gen.payload_fn(index * 1000000 + seq)
        seq += 1
        response = yield from gen.client.request(
            payload, gen.dst, proto=gen.proto, conn=conn,
            timeout=gen.timeout, retries=gen.retries,
            retry_backoff=gen.retry_backoff)
        if response is None:
            gen.timeouts += 1
        elif response.kind == "error":
            gen.errors += 1
        else:
            gen.completed += 1
        if gen.think_time > 0:
            yield env.charge(gen.think_time)


def _drive(monkeypatch, reference, server_kw, gen_kw):
    """Run a closed loop against a flaky echo server, stop it, drain;
    return response timestamps, counters and the event-id sequence."""
    with telemetry.scope() as reg, monkeypatch.context() as patch:
        if reference:
            patch.setattr(client_mod, "_ClosedLoopOp", lambda gen, i:
                          gen.env.process(_reference_worker(gen, i)))
        env = Environment()
        network = Network(env)
        _FlakyEchoServer(env, network, "10.0.0.1", 7777, **server_kw)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(9))
        gen = ClosedLoopGenerator(env, client, Address("10.0.0.1", 7777),
                                  concurrency=3,
                                  payload_fn=lambda i: b"p%d" % i, **gen_kw)
        env.run(until=3000)
        gen.stop()
        env.run(until=6000)
        recovered = reg.get("faults.recovered.client_retry")
    return (env._eid, env.events_processed,
            tuple(client.latency._samples), gen.completed, gen.timeouts,
            gen.errors, client.retries, client.sent.count,
            recovered.value if recovered is not None else 0,
            len(client._waiters))


class TestClosedLoopParity:
    """The ``_ClosedLoopOp`` state machine consumes exactly the event ids
    of the generator it replaced, in every configuration in use."""

    @pytest.mark.parametrize("server_kw, gen_kw", [
        (dict(heal_at=1500), dict(proto=UDP, timeout=200)),
        (dict(heal_at=800), dict(proto=UDP, timeout=150, retries=4,
                                 retry_backoff=120.0)),
        (dict(heal_at=800, fail="error"),
         dict(proto=UDP, timeout=500, retries=3)),
        (dict(heal_at=600), dict(proto=UDP, retries=2, retry_backoff=100.0)),
        (dict(heal_at=0), dict(proto=TCP)),
        (dict(heal_at=0), dict(proto=UDP, think_time=7.5)),
    ], ids=["timeout", "retry-backoff", "retry-error", "retry-default-deadline",
            "tcp-connect", "think-time"])
    def test_matches_reference_generator(self, monkeypatch, server_kw,
                                         gen_kw):
        got = _drive(monkeypatch, False, server_kw, gen_kw)
        want = _drive(monkeypatch, True, server_kw, gen_kw)
        assert got == want
        assert got[3] > 0                        # it really completed
        if gen_kw.get("retries"):
            assert got[6] > 0 and got[8] > 0     # retried and recovered


class TestClientEdgeCases:
    def test_source_port_wraparound(self, env, network):
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        client._next_port = 64999
        a1 = client._source_address()
        client._next_port = 65001
        a2 = client._source_address()
        assert a1.port == 65000
        assert a2.port == 40001  # wrapped

    def test_two_connections_are_independent(self, env, network):
        _EchoServer(env, network, "10.0.0.1", 7777, delay=0.0)
        client = Client(env, network, "10.0.1.1", rng=RngRegistry(0))
        conns = []

        def run(env):
            from repro.net.packet import Address

            c1 = yield from client.connect(Address("10.0.0.1", 7777))
            c2 = yield from client.connect(Address("10.0.0.1", 7777))
            conns.extend([c1, c2])

        env.process(run(env))
        env.run(until=5000)
        assert len(conns) == 2
        assert conns[0].conn_id != conns[1].conn_id
        assert conns[0].client.port != conns[1].client.port
        assert all(c.established for c in conns)
