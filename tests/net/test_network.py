"""Network fabric (switch + wire) behaviour."""

import pytest

from repro import telemetry
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
        with telemetry.scope() as reg:
            network = Network(env)
            port = _Port(env, capacity=1)
            network.attach("10.0.0.2", port)
            dst = Address("10.0.0.2", 2)
            for _ in range(3):
                network.deliver(Message(Address("a", 1), dst, b"x"))
            network.deliver(Message(Address("a", 1), Address("10.9.9.9", 2),
                                    b"x"))
            env.run()
            snap = reg.snapshot()
        assert snap["net.wire.10.0.0.2.delivered"]["value"] == 1
        assert snap["net.wire.10.0.0.2.drops"]["value"] == 2
        assert snap["net.fabric.dropped_no_route"]["value"] == 1

    def test_conservation(self, env):
        """offered == wire deliveries + every drop counter, summed over
        the registry names the end-to-end benchmark folds."""
        with telemetry.scope() as reg:
            network = Network(env)
            for ip in ("10.0.0.2", "10.0.0.3"):
                network.attach(ip, _Port(env, capacity=3))
            offered = 12
            for i in range(offered):
                ip = ("10.9.9.9", "10.0.0.2", "10.0.0.3")[i % 3]
                network.deliver(Message(Address("a", 1), Address(ip, 2),
                                        b"x"))
            env.run()
            snap = reg.snapshot()
        delivered = sum(v["value"] for k, v in snap.items()
                        if k.startswith("net.wire.")
                        and k.endswith(".delivered"))
        drops = sum(v["value"] for k, v in snap.items()
                    if (k.startswith("net.wire.") and k.endswith(".drops"))
                    or k.startswith("net.fabric.dropped_"))
        assert delivered == 6
        assert drops == 4 + 2
        assert delivered + drops == offered
