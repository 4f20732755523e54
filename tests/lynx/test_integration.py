"""End-to-end Lynx data-plane tests (the architectural invariants)."""

import pytest

from repro import Testbed, telemetry
from repro.apps.base import EchoApp, SpinApp
from repro.config import GpuProfile, K40M
from repro.net import Address, ClosedLoopGenerator
from repro.net.packet import TCP, UDP


def host_pool_utilizations(reg, host):
    """Mean utilization of every core pool on *host*, from the registry.

    Every ``CorePool`` registers ``hw.cpu.<pool>.utilization``, and
    pools drawn from a machine are named after it, so these gauges
    cover all the work the host's cores ran.
    """
    prefix = "hw.cpu.%s-" % host.name
    return {name: reg.get(name).mean() for name in reg.names("hw.cpu")
            if name.startswith(prefix) and name.endswith(".utilization")}


def build_service(platform="bluefield", app=None, n_mqueues=2, proto=UDP,
                  gpu_profile=K40M, remote=False, cores=1):
    tb = Testbed()
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu(gpu_profile)
    if platform == "bluefield":
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        ip = "10.0.0.100"
    else:
        runtime, server = tb.lynx_on_host(host, cores=cores)
        ip = "10.0.0.1"
    app = app or EchoApp()
    proc = env.process(runtime.start_gpu_service(
        gpu, app, port=7777, n_mqueues=n_mqueues, proto=proto, remote=remote))
    env.run(until=100)
    service = proc.value
    return tb, env, host, gpu, server, service, Address(ip, 7777)


class TestEchoDataPlane:
    def test_payload_integrity_end_to_end(self):
        tb, env, host, gpu, server, service, addr = build_service()
        client = tb.client("10.0.1.1")
        payloads = [b"payload-%03d" % i for i in range(20)]
        results = []

        def run(env):
            for p in payloads:
                response = yield from client.request(p, addr, proto=UDP)
                results.append(bytes(response.payload))

        env.process(run(env))
        env.run(until=50000)
        assert results == payloads

    def test_responses_return_to_correct_client(self):
        """Two clients multiplexed on one server mqueue (§4.3)."""
        tb, env, host, gpu, server, service, addr = build_service(n_mqueues=1)
        c1 = tb.client("10.0.1.1")
        c2 = tb.client("10.0.1.2")
        got = {}

        def run(env, client, tag):
            for i in range(10):
                response = yield from client.request(tag, addr, proto=UDP)
                got.setdefault(client.ip, []).append(bytes(response.payload))

        env.process(run(env, c1, b"from-c1"))
        env.process(run(env, c2, b"from-c2"))
        env.run(until=50000)
        assert set(got["10.0.1.1"]) == {b"from-c1"}
        assert set(got["10.0.1.2"]) == {b"from-c2"}

    def test_host_cpu_idle_on_data_path(self):
        """§4.3: after setup the host CPU does nothing per-request."""
        with telemetry.scope() as reg:
            tb, env, host, gpu, server, service, addr = build_service()
            client = tb.client("10.0.1.1")
            gen = ClosedLoopGenerator(env, client, addr, concurrency=4,
                                      payload_fn=lambda i: b"x" * 32,
                                      proto=UDP)
            env.run(until=100000)
        assert gen.completed > 100
        assert server.workers.utilization > 0   # the SNIC cores did it
        for name, utilization in host_pool_utilizations(reg, host).items():
            assert utilization == pytest.approx(0.0), name

    def test_tcp_service_works_with_handshake(self):
        tb, env, host, gpu, server, service, addr = build_service(proto=TCP)
        client = tb.client("10.0.1.1")
        gen = ClosedLoopGenerator(env, client, addr, concurrency=2,
                                  payload_fn=lambda i: b"tcp-req", proto=TCP)
        env.run(until=100000)
        assert gen.completed > 50


class TestOverloadBehaviour:
    def test_udp_overload_drops_not_explodes(self):
        from repro.net import OpenLoopGenerator

        tb, env, host, gpu, server, service, addr = build_service(
            app=SpinApp(500.0), n_mqueues=1)
        client = tb.client("10.0.1.1")
        gen = OpenLoopGenerator(env, client, addr, rate_per_us=0.1,
                                payload_fn=lambda i: b"x" * 16, proto=UDP)
        env.run(until=100000)
        # offered 100K/s to a ~2K/s service: must shed, stay live
        assert service.dropped + server.dropped > 100
        assert client.responses.count > 50

    def test_ring_bounds_inflight_requests(self):
        tb, env, host, gpu, server, service, addr = build_service(
            app=SpinApp(1000.0), n_mqueues=1)
        mq = service.mqueues[0]
        assert mq.rx_occupancy <= mq.entries


class TestRemoteAccelerators:
    def test_remote_gpu_adds_rdma_latency(self):
        lat = {}
        for remote in (False, True):
            tb, env, host, gpu, server, service, addr = build_service(
                app=SpinApp(50.0), remote=remote, n_mqueues=1)
            client = tb.client("10.0.1.1")
            ClosedLoopGenerator(env, client, addr, concurrency=1,
                                payload_fn=lambda i: b"x" * 16, proto=UDP)
            tb.warmup_then_measure([client.latency], 5000, 20000)
            lat[remote] = client.latency.p50()
        extra = lat[True] - lat[False]
        # §6.3: "using remote GPUs adds about 8us latency"
        assert 4.0 <= extra <= 14.0


class TestConsistencyBarrier:
    def test_barrier_gpu_pays_extra_latency(self):
        barrier_profile = GpuProfile(name="k40m-barrier",
                                     needs_write_barrier=True)
        lat = {}
        for profile in (K40M, barrier_profile):
            tb, env, host, gpu, server, service, addr = build_service(
                app=SpinApp(20.0), gpu_profile=profile, n_mqueues=1)
            client = tb.client("10.0.1.1")
            ClosedLoopGenerator(env, client, addr, concurrency=1,
                                payload_fn=lambda i: b"x" * 16, proto=UDP)
            tb.warmup_then_measure([client.latency], 5000, 20000)
            lat[profile.name] = client.latency.p50()
        extra = lat["k40m-barrier"] - lat["k40m"]
        # §5.1: the workaround costs ~5us per message.
        assert 4.0 <= extra <= 8.0


class TestMultiTenancy:
    def test_two_apps_on_different_ports(self):
        tb = Testbed()
        env = tb.env
        host = tb.machine("10.0.0.1")
        gpu1 = host.add_gpu(K40M)
        gpu2 = host.add_gpu(K40M)
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        env.process(runtime.start_gpu_service(gpu1, EchoApp(), port=7001,
                                              n_mqueues=1))
        env.process(runtime.start_gpu_service(gpu2, SpinApp(10.0),
                                              port=7002, n_mqueues=1))
        env.run(until=100)
        client = tb.client("10.0.1.1")
        results = {}

        def run(env):
            r1 = yield from client.request(b"one", Address("10.0.0.100", 7001),
                                           proto=UDP)
            r2 = yield from client.request(b"two", Address("10.0.0.100", 7002),
                                           proto=UDP)
            results["one"] = bytes(r1.payload)
            results["two"] = bytes(r2.payload)

        env.process(run(env))
        env.run(until=10000)
        assert results == {"one": b"one", "two": b"ok!\x00"}


class TestTenantAccounting:
    def test_per_port_stats_attribute_traffic(self):
        tb = Testbed()
        env = tb.env
        host = tb.machine("10.0.0.1")
        gpu1 = host.add_gpu(K40M)
        gpu2 = host.add_gpu(K40M)
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        env.process(runtime.start_gpu_service(gpu1, EchoApp(), port=7001))
        env.process(runtime.start_gpu_service(gpu2, EchoApp(), port=7002))
        env.run(until=200)
        client = tb.client("10.0.1.1")

        def drive(env):
            for i in range(9):
                port = 7001 if i % 3 else 7002  # 6 vs 3 requests
                yield from client.request(b"x", Address("10.0.0.100", port),
                                          proto=UDP)

        env.process(drive(env))
        env.run(until=50000)
        reqs1, resps1 = server.port_stats(7001)
        reqs2, resps2 = server.port_stats(7002)
        assert (reqs1.count, resps1.count) == (6, 6)
        assert (reqs2.count, resps2.count) == (3, 3)

    def test_unknown_port_stats_rejected(self):
        from repro.errors import ConfigError

        tb = Testbed()
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        with pytest.raises(ConfigError):
            server.port_stats(1234)


class TestTracing:
    def test_tracer_records_data_plane_events(self):
        from repro.config import DEFAULT_CONFIG

        tb = Testbed(config=DEFAULT_CONFIG.with_(trace=True))
        env = tb.env
        host = tb.machine("10.0.0.1")
        gpu = host.add_gpu(K40M)
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        env.process(runtime.start_gpu_service(gpu, EchoApp(), port=7777))
        env.run(until=200)
        client = tb.client("10.0.1.1")

        def one(env):
            yield from client.request(b"x", Address("10.0.0.100", 7777),
                                      proto=UDP)

        env.process(one(env))
        env.run(until=10000)
        # one rx, dispatch and tx from the Lynx server; one rx and tx
        # from its network stack
        for channel, want in ((server.name, ["rx", "dispatch", "tx"]),
                              (server.stack.name, ["rx", "tx"])):
            events = [record[2] for record in tb.tracer.records
                      if record[1] == channel]
            assert events == want
        # chronological order through the pipeline
        times = [record[0] for record in tb.tracer.records]
        assert times == sorted(times)

    def test_every_wire_and_rdma_transfer_is_traced(self):
        """Lynx's NIC-TX and RDMA hops emit ``xfer`` like any transfer."""
        from repro.config import SimConfig
        from repro.experiments.common import LYNX_BLUEFIELD, deploy

        dep = deploy(LYNX_BLUEFIELD, app=EchoApp(),
                     config=SimConfig(trace=True))
        env, server = dep.env, dep.server
        gen = ClosedLoopGenerator(env, dep.tb.client("10.0.1.1"),
                                  dep.address, concurrency=4,
                                  payload_fn=lambda i: b"x" * 32, proto=UDP)
        env.run(until=5000)
        gen.stop()
        env.run(until=10000)            # drain every in-flight hop
        tracer = dep.tb.tracer
        engine = dep.service.manager.engine
        wire = tracer.filter(channel=server.nic.tx.name, event="xfer")
        rdma = tracer.filter(channel=engine.channel.name, event="xfer")
        assert tracer.dropped == 0
        assert gen.completed > 100
        assert len(wire) == server.responses.count == server.nic.tx.sent
        assert len(rdma) == engine.ops_posted == server.nic.rdma.channel.sent

    def test_tracing_disabled_by_default(self):
        tb, env, host, gpu, server, service, addr = build_service()
        client = tb.client("10.0.1.1")

        def one(env):
            yield from client.request(b"x", addr, proto=UDP)

        env.process(one(env))
        env.run(until=10000)
        assert tb.tracer.records == []
