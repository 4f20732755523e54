"""Dispatch policies."""

import pytest

from repro.errors import ConfigError
from repro.hw.memory import MemoryRegion
from repro.lynx.dispatch import ClientSteering, LeastLoaded, RoundRobin, make_policy
from repro.lynx.mqueue import MQueue
from repro.net.packet import Address, Message
from repro.sim import Environment


@pytest.fixture
def mqueues():
    env = Environment()
    memory = MemoryRegion("m")
    return [MQueue(env, memory, 8, name="mq%d" % i) for i in range(4)]


def msg_from(ip, port=1000):
    return Message(Address(ip, port), Address("10.0.0.1", 7777), b"x")


class TestRoundRobin:
    def test_cycles(self, mqueues):
        policy = RoundRobin()
        picks = [policy.select(mqueues, msg_from("c")) for _ in range(8)]
        assert picks == mqueues + mqueues

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            RoundRobin().select([], msg_from("c"))


class TestLeastLoaded:
    def test_prefers_emptier_queue(self, mqueues):
        mqueues[0].claim_rx_slot()
        mqueues[0].claim_rx_slot()
        mqueues[1].claim_rx_slot()
        policy = LeastLoaded()
        assert policy.select(mqueues, msg_from("c")) in mqueues[2:]


class TestClientSteering:
    def test_same_client_same_queue(self, mqueues):
        policy = ClientSteering()
        first = policy.select(mqueues, msg_from("10.0.1.5", 4444))
        for _ in range(5):
            assert policy.select(mqueues, msg_from("10.0.1.5", 4444)) is first

    def test_clients_spread_over_queues(self, mqueues):
        policy = ClientSteering()
        picks = {policy.select(mqueues, msg_from("10.0.1.%d" % i, 4444))
                 for i in range(50)}
        assert len(picks) > 1


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_policy("round-robin"), RoundRobin)
        assert isinstance(make_policy("least-loaded"), LeastLoaded)
        assert isinstance(make_policy("steering"), ClientSteering)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_policy("magic")
