"""mqueue ring semantics."""

import pytest

from repro.errors import ConfigError
from repro.hw.memory import MemoryRegion
from repro.lynx.mqueue import CLIENT, MQueue, MQueueEntry, SERVER
from repro.net.packet import Address
from repro.sim import Environment, Store


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def memory():
    return MemoryRegion("accel-mem")


def make_entry(payload=b"x"):
    return MQueueEntry(payload=payload, size=len(payload))


class TestConstruction:
    def test_server_mqueue_is_connectionless(self, env, memory):
        with pytest.raises(ConfigError):
            MQueue(env, memory, 8, kind=SERVER,
                   destination=Address("10.0.0.2", 11211))

    def test_client_mqueue_needs_destination(self, env, memory):
        with pytest.raises(ConfigError):
            MQueue(env, memory, 8, kind=CLIENT)

    def test_entries_must_be_positive(self, env, memory):
        with pytest.raises(ConfigError):
            MQueue(env, memory, 0)

    def test_unknown_kind_rejected(self, env, memory):
        with pytest.raises(ConfigError):
            MQueue(env, memory, 8, kind="weird")


class TestRxRing:
    def test_claim_then_complete_delivers(self, env, memory):
        mq = MQueue(env, memory, 4)
        assert mq.claim_rx_slot()
        mq.complete_rx(make_entry())
        env.run()
        assert len(mq.rx_ring) == 1
        assert mq.delivered == 1

    def test_ring_full_claims_fail_and_count_drops(self, env, memory):
        mq = MQueue(env, memory, 2)
        assert mq.claim_rx_slot()
        assert mq.claim_rx_slot()
        assert not mq.claim_rx_slot()
        assert mq.dropped == 1

    def test_pop_releases_claim(self, env, memory):
        mq = MQueue(env, memory, 1)
        assert mq.claim_rx_slot()
        mq.complete_rx(make_entry())

        def consumer(env):
            yield mq.pop_rx()

        env.process(consumer(env))
        env.run()
        assert mq.rx_occupancy == 0
        assert mq.claim_rx_slot()  # space again

    def test_abort_releases_claim(self, env, memory):
        mq = MQueue(env, memory, 1)
        assert mq.claim_rx_slot()
        mq.abort_rx()
        assert mq.rx_occupancy == 0


class TestWraparound:
    def test_ring_wraps_fifo_over_three_generations(self, env, memory):
        mq = MQueue(env, memory, 4)
        popped = []

        def cycle(env):
            for i in range(12):
                assert mq.claim_rx_slot()
                mq.complete_rx(make_entry(payload=b"p%d" % i))
                if (i + 1) % 4 == 0:  # drain a full ring generation
                    for _ in range(4):
                        entry = yield mq.pop_rx()
                        popped.append(entry.payload)

        env.process(cycle(env))
        env.run()
        assert popped == [b"p%d" % i for i in range(12)]
        assert mq.rx_occupancy == 0
        assert mq.delivered == 12
        assert mq.dropped == 0


class TestTxRing:
    def test_doorbell_requires_registration(self, env, memory):
        mq = MQueue(env, memory, 4)
        with pytest.raises(ConfigError):
            mq.ring_doorbell()

    def test_doorbell_notifies_channel(self, env, memory):
        mq = MQueue(env, memory, 4)
        mq.tx_doorbell = Store(env)
        mq.ring_doorbell()
        env.run()
        assert mq.tx_doorbell.try_get() is mq

    def test_push_tx_counts(self, env, memory):
        mq = MQueue(env, memory, 4)

        def proc(env):
            yield mq.push_tx(make_entry())

        env.process(proc(env))
        env.run()
        assert mq.sent == 1
        assert len(mq.tx_ring) == 1
