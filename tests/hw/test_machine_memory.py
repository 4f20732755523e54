"""Machine composition extras and memory regions."""

import pytest

from repro import Testbed
from repro.errors import ConfigError
from repro.hw.memory import MemoryRegion


class TestMemoryRegion:
    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            MemoryRegion("m", access_latency=-1)

    def test_bar_exposure_flag(self):
        hidden = MemoryRegion("h", exposed_on_pcie=False)
        assert not hidden.exposed_on_pcie
        assert "not BAR-exposed" in repr(hidden)


class TestAddNic:
    def test_second_nic_gets_own_ip_and_link(self):
        tb = Testbed()
        host = tb.machine("10.0.0.1")
        nic2 = host.add_nic("10.0.0.11")
        assert nic2.ip == "10.0.0.11"
        assert tb.network.endpoint("10.0.0.11") is nic2
        assert host.devices["nic1"] is nic2

    def test_two_extra_nics(self):
        tb = Testbed()
        host = tb.machine("10.0.0.1")
        host.add_nic("10.0.0.11")
        host.add_nic("10.0.0.12")
        assert "nic2" in host.devices

    def test_servers_on_separate_nics_coexist(self):
        """The Fig 9 config-B shape: Lynx and memcached on one host."""
        from repro.apps.base import EchoApp
        from repro.apps.memcached import MemcachedServer, encode_get, encode_set
        from repro.config import XEON_VMA
        from repro.net import Address
        from repro.net.packet import UDP

        tb = Testbed()
        env = tb.env
        host = tb.machine("10.0.0.1")
        gpu = host.add_gpu()
        runtime, server = tb.lynx_on_host(host, cores=1)
        env.process(runtime.start_gpu_service(gpu, EchoApp(), port=7777))
        mc_nic = host.add_nic("10.0.0.11")
        mc = MemcachedServer(env, mc_nic, host.pool(count=2, name="mc"),
                             XEON_VMA)
        env.run(until=200)
        client = tb.client("10.0.1.1")
        results = {}

        def drive(env):
            r = yield from client.request(b"hi", Address("10.0.0.1", 7777),
                                          proto=UDP)
            results["echo"] = bytes(r.payload)
            yield from client.request(encode_set(b"k", b"v"),
                                      Address("10.0.0.11", 11211), proto=UDP)
            r = yield from client.request(encode_get(b"k"),
                                          Address("10.0.0.11", 11211),
                                          proto=UDP)
            results["kv"] = bytes(r.payload)

        env.process(drive(env))
        env.run(until=50000)
        assert results == {"echo": b"hi", "kv": b"v"}


class TestKernelChain:
    def test_chain_serializes_on_default_stream(self):
        tb = Testbed()
        host = tb.machine("10.0.0.1")
        gpu = host.add_gpu()
        pool = host.pool(count=2, name="p")
        env = tb.env
        ends = []

        def request(env):
            yield from gpu.run_kernel_chain(pool, [50.0, 50.0])
            ends.append(env.now)

        env.process(request(env))
        env.process(request(env))
        env.run()
        # each chain holds the device: the second finishes a full chain
        # (not a single kernel) after the first
        assert ends[1] - ends[0] >= 100.0
