"""Remote MQ Manager unit behaviour."""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG, DEFAULT_RDMA
from repro.errors import ConfigError
from repro.hw.cpu import CorePool
from repro.config import XEON_E5_2620
from repro.hw.memory import MemoryRegion
from repro.lynx.mqueue import MQueue, METADATA_BYTES
from repro.lynx.rmq import RemoteMQManager
from repro.net.packet import Address, Message
from repro.net.rdma import RdmaEngine
from repro.sim import Environment


class _Accel:
    def __init__(self, env):
        self.name = "accel"
        self.memory = MemoryRegion("accel-mem")


@pytest.fixture
def setup():
    env = Environment()
    accel = _Accel(env)
    engine = RdmaEngine(env, DEFAULT_RDMA)
    qp = engine.connect(accel.memory)
    workers = CorePool(env, XEON_E5_2620, count=2)
    manager = RemoteMQManager(env, accel, qp, workers, DEFAULT_CONFIG.lynx)
    return env, accel, manager


def _msg(size=64):
    return Message(Address("10.0.1.1", 1000), Address("10.0.0.1", 7777),
                   b"x" * size)


class TestRegistration:
    def test_register_wires_doorbell(self, setup):
        env, accel, manager = setup
        mq = MQueue(env, accel.memory, 8)
        manager.register(mq)
        assert mq.tx_doorbell is manager._doorbells
        assert mq in manager.mqueues

    def test_double_registration_rejected(self, setup):
        env, accel, manager = setup
        mq = MQueue(env, accel.memory, 8)
        manager.register(mq)
        with pytest.raises(ConfigError):
            manager.register(mq)

    def test_foreign_mqueue_rejected_on_deliver(self, setup):
        env, accel, manager = setup
        foreign = MQueue(env, accel.memory, 8)
        with pytest.raises(ConfigError):
            manager.deliver(foreign, _msg())


class TestIngress:
    def test_deliver_places_entry_after_rdma(self, setup):
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 8))
        assert manager.deliver(mq, _msg())
        assert len(mq.rx_ring) == 0  # not yet: RDMA in flight
        env.run(until=50)
        assert len(mq.rx_ring) == 1
        assert manager.deliveries == 1
        # coalesced: one write of payload+metadata
        assert manager.qp.ops == 1
        assert manager.qp.bytes_moved == 64 + METADATA_BYTES

    def test_uncoalesced_mode_uses_two_transactions(self, setup):
        env, accel, manager = setup
        manager.profile = replace(manager.profile, coalesce_metadata=False)
        mq = manager.register(MQueue(env, accel.memory, 8))
        assert manager.deliver(mq, _msg())
        env.run(until=100)
        assert len(mq.rx_ring) == 1
        # payload write, then a separate metadata (doorbell) write
        assert manager.qp.ops == 2
        assert manager.qp.bytes_moved == 64 + METADATA_BYTES

    def test_full_ring_drops(self, setup):
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 2))
        assert manager.deliver(mq, _msg())
        assert manager.deliver(mq, _msg())
        assert not manager.deliver(mq, _msg())
        assert mq.dropped == 1

    def test_barrier_mode_uses_three_transactions(self, setup):
        env, accel, manager = setup
        manager.needs_barrier = True
        mq = manager.register(MQueue(env, accel.memory, 8))
        manager.deliver(mq, _msg())
        env.run(until=100)
        # payload write + barrier read + doorbell write
        assert manager.qp.ops == 3


class TestEgress:
    def test_sweep_forwards_tx_entries(self, setup):
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 8))
        forwarded = []
        manager.on_tx(lambda q, e: forwarded.append((q, e)))

        def accel_send(env):
            from repro.lynx.mqueue import MQueueEntry

            yield mq.push_tx(MQueueEntry(b"resp", 4))
            mq.ring_doorbell()

        env.process(accel_send(env))
        env.run(until=100)
        assert len(forwarded) == 1
        assert manager.sweeps >= 1

    def test_sweep_without_sink_fails(self, setup):
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 8))

        def accel_send(env):
            from repro.lynx.mqueue import MQueueEntry

            yield mq.push_tx(MQueueEntry(b"resp", 4))
            mq.ring_doorbell()

        env.process(accel_send(env))
        with pytest.raises(ConfigError, match="no forwarder"):
            env.run(until=100)

    def test_one_sweep_collects_many_queues(self, setup):
        env, accel, manager = setup
        mqs = [manager.register(MQueue(env, accel.memory, 8,
                                       name="m%d" % i)) for i in range(4)]
        forwarded = []
        manager.on_tx(lambda q, e: forwarded.append(q))

        def accel_send(env):
            from repro.lynx.mqueue import MQueueEntry

            for mq in mqs:
                yield mq.push_tx(MQueueEntry(b"r", 1))
                mq.ring_doorbell()

        env.process(accel_send(env))
        env.run(until=200)
        assert len(forwarded) == 4
        # batched: far fewer sweeps than messages is allowed; at least 1
        assert 1 <= manager.sweeps <= 4
