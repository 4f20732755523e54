"""Host-centric baseline server behaviour."""

import pytest

from repro import Testbed
from repro.apps.base import EchoApp, SpinApp
from repro.baseline import HostCentricServer, host_centric
from repro.config import K40M
from repro.errors import ConfigError
from repro.net import Address, ClosedLoopGenerator, OpenLoopGenerator
from repro.net.packet import TCP, UDP


def build(app=None, cores=1, gpus=1, proto=UDP):
    tb = Testbed()
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu_list = [host.add_gpu(K40M) for _ in range(gpus)]
    server = HostCentricServer(env, host, gpu_list, app or EchoApp(),
                               port=7777, cores=cores, proto=proto)
    return tb, env, host, server, Address("10.0.0.1", 7777)


class TestBasics:
    def test_needs_a_gpu(self):
        tb = Testbed()
        host = tb.machine("10.0.0.1")
        with pytest.raises(ConfigError):
            HostCentricServer(tb.env, host, [], EchoApp(), port=7777)

    def test_echo_integrity(self):
        tb, env, host, server, addr = build()
        client = tb.client("10.0.1.1")
        results = []

        def run(env):
            for i in range(10):
                response = yield from client.request(b"req-%d" % i, addr,
                                                     proto=UDP)
                results.append(bytes(response.payload))

        env.process(run(env))
        env.run(until=50000)
        assert results == [b"req-%d" % i for i in range(10)]

    def test_host_cpu_is_busy_per_request(self):
        """The defining contrast with Lynx: CPU works for every request."""
        tb, env, host, server, addr = build()
        client = tb.client("10.0.1.1")
        ClosedLoopGenerator(env, client, addr, concurrency=4,
                            payload_fn=lambda i: b"x" * 32, proto=UDP)
        env.run(until=50000)
        assert server.pool.utilization > 0.2

    def test_gpu_round_robin_across_gpus(self):
        tb, env, host, server, addr = build(gpus=2, app=SpinApp(50.0))
        client = tb.client("10.0.1.1")
        ClosedLoopGenerator(env, client, addr, concurrency=8,
                            payload_fn=lambda i: b"x", proto=UDP)
        env.run(until=20000)
        assert host.gpus[0].kernels_launched > 0
        assert host.gpus[1].kernels_launched > 0

    def test_tcp_service(self):
        tb, env, host, server, addr = build(proto=TCP)
        client = tb.client("10.0.1.1")
        gen = ClosedLoopGenerator(env, client, addr, concurrency=2,
                                  payload_fn=lambda i: b"t", proto=TCP)
        env.run(until=50000)
        assert gen.completed > 20


class TestBottlenecks:
    def test_driver_lock_limits_throughput(self):
        """Kernel time is 0: throughput is driver/CPU-bound."""
        tb, env, host, server, addr = build(app=SpinApp(0.0))
        client = tb.client("10.0.1.1")
        OpenLoopGenerator(env, client, addr, rate_per_us=1.0,
                          payload_fn=lambda i: b"x" * 16, proto=UDP)
        tb.warmup_then_measure([client.responses], 20000, 50000)
        tput = client.responses.per_sec()
        # Well below the offered 1M/s: tens of K at most.
        assert 10000 < tput < 80000

    def test_stream_pool_bounds_inflight(self, monkeypatch):
        monkeypatch.setattr(host_centric, "STREAMS_PER_GPU", 4)
        tb, env, host, server, addr = build(app=SpinApp(2000.0))
        client = tb.client("10.0.1.1")
        OpenLoopGenerator(env, client, addr, rate_per_us=0.05,
                          payload_fn=lambda i: b"x", proto=UDP)
        env.run(until=30000)
        assert server.streams.in_use <= 4

    def test_invocation_overhead_single_request(self):
        """§3.2: ~100us kernel => ~130us pipeline (30us overhead)."""
        tb, env, host, server, addr = build(app=SpinApp(100.0))
        client = tb.client("10.0.1.1")
        ClosedLoopGenerator(env, client, addr, concurrency=1,
                            payload_fn=lambda i: b"x" * 4, proto=UDP)
        tb.warmup_then_measure([client.latency], 5000, 20000)
        # e2e also includes network + stack + client: allow some slack
        assert 125 <= client.latency.p50() <= 155
