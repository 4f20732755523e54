"""NICs, SmartNICs and the machine composition root."""

import pytest

from repro import telemetry
from repro.config import (
    BluefieldProfile,
    DEFAULT_CONFIG,
    InnovaProfile,
    K40M,
    VcaProfile,
)
from repro.errors import ConfigError
from repro.hw import BluefieldSNIC, InnovaSNIC, IntelVCA, Machine, Nic
from repro.net import Address, Message, Network
from repro.sim import Environment, RngRegistry


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def reg():
    with telemetry.scope() as reg:
        yield reg


@pytest.fixture
def network(env, reg):
    return Network(env)


@pytest.fixture
def rng():
    return RngRegistry(0)


class TestNic:
    def test_send_delivers_through_network(self, env, network):
        a = Nic(env, network, "10.0.0.1")
        b = Nic(env, network, "10.0.0.2")
        msg = Message(Address("10.0.0.1", 1000), Address("10.0.0.2", 2000),
                      b"hello")

        def proc(env):
            yield from a.send(msg)

        env.process(proc(env))
        env.run()
        assert len(b.rx) == 1
        assert b.rx.try_get().payload == b"hello"

    def test_rx_ring_drops_overflow(self, env, network, reg, monkeypatch):
        a = Nic(env, network, "10.0.0.1")
        monkeypatch.setattr(Nic, "RX_RING_ENTRIES", 2)
        b = Nic(env, network, "10.0.0.2")
        for i in range(5):
            a.send_async(Message(Address("10.0.0.1", 1000),
                                 Address("10.0.0.2", 2000), b"x"))
        env.run()
        assert len(b.rx) == 2
        assert reg.snapshot()["net.wire.10.0.0.2.drops"]["value"] == 3

    def test_unroutable_message_counted(self, env, network, reg):
        a = Nic(env, network, "10.0.0.1")
        a.send_async(Message(Address("10.0.0.1", 1), Address("10.9.9.9", 2),
                             b"x"))
        env.run()
        assert reg.snapshot()["net.fabric.dropped_no_route"]["value"] == 1


class TestBluefield:
    def test_has_seven_worker_cores(self, env, network, rng):
        snic = BluefieldSNIC(env, network, "10.0.0.100", BluefieldProfile(),
                             DEFAULT_CONFIG.cache, rng.stream("llc"))
        assert snic.workers.count == 7
        assert snic.rdma is snic.nic.rdma

    def test_worker_count_validated(self, env, network, rng):
        bad = BluefieldProfile(worker_cores=99)
        with pytest.raises(ConfigError):
            BluefieldSNIC(env, network, "10.0.0.100", bad,
                          DEFAULT_CONFIG.cache, rng.stream("llc"))


class TestInnova:
    def test_tx_unsupported(self, env, network):
        snic = InnovaSNIC(env, network, "10.0.0.101", InnovaProfile())
        with pytest.raises(ConfigError):
            snic.check_tx_supported()


class TestVca:
    def test_three_nodes(self, env, rng):
        vca = IntelVCA(env, VcaProfile(), DEFAULT_CONFIG.cache,
                       rng.stream("llc"))
        assert len(vca.nodes) == 3

    def test_enclave_call_charges_transition(self, env, rng):
        vca = IntelVCA(env, VcaProfile(), DEFAULT_CONFIG.cache,
                       rng.stream("llc"))

        def proc(env):
            yield from vca.nodes[0].enclave_call(0.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value >= VcaProfile().enclave_transition

    def test_mqueue_access_crosses_pcie_with_workaround(self, env, rng):
        vca = IntelVCA(env, VcaProfile(), DEFAULT_CONFIG.cache,
                       rng.stream("llc"))
        assert vca.nodes[0].mqueue_access_latency() >= vca.pcie_crossing


class TestMachine:
    def test_machine_composition(self, env, network, rng):
        m = Machine(env, network, "10.0.0.1", DEFAULT_CONFIG,
                    rng_registry=rng)
        gpu = m.add_gpu(K40M)
        assert m.gpus == [gpu]
        assert m.devices[gpu.name] is gpu
        assert m.socket.profile.cores == 6

    def test_requires_rng_registry(self, env, network):
        with pytest.raises(ConfigError):
            Machine(env, network, "10.0.0.1", DEFAULT_CONFIG)
