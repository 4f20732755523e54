"""Network fabric (switch + wire) behaviour."""

import pytest

from repro.errors import NetworkError
from repro.net import Network
from repro.net.network import SWITCH_LATENCY, WIRE_LATENCY
from repro.net.packet import Address, Message
from repro.sim import Environment, Store


class _Port:
    def __init__(self, env, capacity=float("inf")):
        self.rx = Store(env, capacity=capacity)


@pytest.fixture
def env():
    return Environment()


class TestAttachment:
    def test_duplicate_ip_rejected(self, env):
        network = Network(env)
        network.attach("10.0.0.1", _Port(env))
        with pytest.raises(NetworkError):
            network.attach("10.0.0.1", _Port(env))

    def test_unknown_endpoint_lookup(self, env):
        with pytest.raises(NetworkError):
            Network(env).endpoint("10.9.9.9")


class TestDelivery:
    def test_one_way_latency(self, env):
        network = Network(env)
        port = _Port(env)
        network.attach("10.0.0.2", port)
        msg = Message(Address("10.0.0.1", 1), Address("10.0.0.2", 2), b"x")
        network.deliver(msg)
        env.run()
        assert env.now == pytest.approx(2 * WIRE_LATENCY + SWITCH_LATENCY)
        assert port.rx.try_get() is msg

    def test_counters(self, env):
        network = Network(env)
        port = _Port(env, capacity=1)
        network.attach("10.0.0.2", port)
        dst = Address("10.0.0.2", 2)
        for _ in range(3):
            network.deliver(Message(Address("a", 1), dst, b"x"))
        network.deliver(Message(Address("a", 1), Address("10.9.9.9", 2),
                                b"x"))
        env.run()
        assert network.counters.get("delivered") == 1
        assert network.counters.get("dropped_rx_ring") == 2
        assert network.counters.get("dropped_no_route") == 1

    def test_conservation(self, env):
        """offered == delivered + dropped_rx_ring + dropped_no_route."""
        network = Network(env)
        port = _Port(env, capacity=5)
        network.attach("10.0.0.2", port)
        offered = 12
        for i in range(offered):
            ip = "10.0.0.2" if i % 3 else "10.9.9.9"
            network.deliver(Message(Address("a", 1), Address(ip, 2), b"x"))
        env.run()
        counted = (network.counters.get("delivered")
                   + network.counters.get("dropped_rx_ring")
                   + network.counters.get("dropped_no_route"))
        assert counted == offered
