"""Fast-path guarantees of the Lynx data plane.

The acceptance bar for the kernel fast-path work: message delivery on
the ingress path must not allocate a simulation Process per message
(asserted via the environment's processes-spawned counter), and the
egress poll loop's sweep/drain interleaving must consume every doorbell
a sweep satisfies.  The memcached server and its closed-loop clients
are held to the same bar.
"""

import pytest

from repro import Testbed
from repro.apps.memcached import MemcachedServer, encode_get
from repro.config import DEFAULT_CONFIG, DEFAULT_RDMA, XEON_E5_2620, XEON_VMA
from repro.hw.cpu import CorePool
from repro.hw.memory import MemoryRegion
from repro.lynx.mqueue import MQueue, MQueueEntry
from repro.lynx.rmq import RemoteMQManager
from repro.net import ClosedLoopGenerator
from repro.net.packet import TCP, UDP, Address, Message
from repro.net.rdma import RdmaEngine
from repro.sim import Environment


class _Accel:
    def __init__(self, env):
        self.name = "accel"
        self.memory = MemoryRegion(env, "accel-mem")


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


class TestIngressAllocations:
    def test_no_process_spawned_per_delivered_message(self, setup):
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 256))
        spawned_after_setup = env.processes_spawned
        for _ in range(100):
            assert manager.deliver(mq, _msg())
        env.run(until=5000)
        assert manager.deliveries == 100
        # The whole burst must ride callback state machines: not one
        # simulation Process was created after setup.
        assert env.processes_spawned == spawned_after_setup

    def test_delivery_op_records_are_recycled(self, setup):
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 256))
        for _ in range(20):
            assert manager.deliver(mq, _msg())
        env.run(until=5000)
        assert manager.deliveries == 20
        # Sequential messages reuse a handful of pooled op records.
        assert 1 <= len(manager._op_pool) <= 20

    def test_barrier_mode_still_spawns_nothing(self, setup):
        env, accel, manager = setup
        manager.needs_barrier = True
        mq = manager.register(MQueue(env, accel.memory, 64))
        spawned_after_setup = env.processes_spawned
        for _ in range(10):
            assert manager.deliver(mq, _msg())
        env.run(until=5000)
        assert manager.deliveries == 10
        assert manager.qp.ops == 30  # write + barrier read + doorbell each
        assert env.processes_spawned == spawned_after_setup

    def test_membership_check_uses_set(self, setup):
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 8))
        assert mq in manager._mqueue_set
        assert manager.mqueues == [mq]  # list API preserved for callers


class TestMemcachedServingAllocations:
    @pytest.mark.parametrize("proto", [UDP, TCP])
    def test_serving_spawns_no_process(self, proto):
        tb = Testbed(seed=1)
        env = tb.env
        host = tb.machine("10.0.0.2")
        client = tb.client("10.0.1.1")
        spawned_before = env.processes_spawned
        server = MemcachedServer(env, host.nic,
                                 host.pool(count=2, name="mc"), XEON_VMA)
        gen = ClosedLoopGenerator(env, client, Address("10.0.0.2", 11211),
                                  concurrency=8,
                                  payload_fn=lambda i: encode_get(b"k"),
                                  proto=proto)
        env.run(until=5000)
        assert gen.completed > 100 and server.ops.count >= gen.completed
        # Neither setting up nor serving creates a simulation Process:
        # server workers and client workers are callback state machines.
        assert env.processes_spawned == spawned_before


class TestSweepDrainInterleaving:
    def test_sweep_consumes_doorbells_it_satisfied(self, setup):
        """Doorbells rung before/during a sweep are drained by it, so a
        burst of rings triggers far fewer sweeps than rings."""
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 64))
        forwarded = []
        manager.on_tx(lambda q, e: forwarded.append(e))

        def accel_send(env):
            for _ in range(8):
                yield mq.push_tx(MQueueEntry(b"resp", 4))
                mq.ring_doorbell()

        env.process(accel_send(env))
        env.run(until=500)
        assert len(forwarded) == 8
        # One armed wakeup plus at most a couple of follow-up sweeps —
        # NOT one sweep per doorbell.
        assert 1 <= manager.sweeps <= 4
        # Every token the sweeps covered was consumed.
        assert len(manager._doorbells) == 0

    def test_poller_rearms_after_idle(self, setup):
        env, accel, manager = setup
        mq = manager.register(MQueue(env, accel.memory, 64))
        forwarded = []
        manager.on_tx(lambda q, e: forwarded.append(e))

        def burst(env, at):
            if at > env.now:
                yield env.charge(at - env.now)
            yield mq.push_tx(MQueueEntry(b"r", 4))
            mq.ring_doorbell()

        env.process(burst(env, 0.0))
        env.process(burst(env, 200.0))
        env.run(until=500)
        # The second burst (long after the poller went back to sleep)
        # was still picked up: the doorbell store re-armed the loop.
        assert len(forwarded) == 2
        assert manager.sweeps >= 2
