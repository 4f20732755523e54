"""One-sided RDMA engine model."""

import pytest

from repro.config import DEFAULT_RDMA, RdmaProfile
from repro.errors import NetworkError
from repro.hw.memory import MemoryRegion
from repro.net.rdma import RdmaEngine
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def engine(env):
    return RdmaEngine(env, DEFAULT_RDMA)


@pytest.fixture
def memory():
    return MemoryRegion("gpu-mem")


class TestQueuePairs:
    def test_connect_creates_qp(self, engine, memory):
        qp = engine.connect(memory)
        assert qp.target is memory and not qp.remote

    def test_remote_requires_bar_exposed_memory(self, env, engine):
        hidden = MemoryRegion("hidden", exposed_on_pcie=False)
        with pytest.raises(NetworkError):
            engine.connect(hidden, remote=True)

    def test_foreign_qp_rejected(self, env, engine, memory):
        other = RdmaEngine(env, DEFAULT_RDMA, name="other")
        qp = other.connect(memory)
        env.process(engine.write(qp, 10))
        with pytest.raises(NetworkError):
            env.run()


class TestOperations:
    def test_write_latency(self, env, engine, memory):
        qp = engine.connect(memory)

        def proc(env):
            yield from engine.write(qp, 64)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(engine.write_time(64))

    def test_read_takes_a_round_trip(self, env, engine, memory):
        qp = engine.connect(memory)
        times = {}

        def proc(env, op, name):
            yield from op(qp, 64)
            times[name] = env.now

        env.process(proc(env, engine.write, "write"))
        env.run()
        env2 = Environment()
        engine2 = RdmaEngine(env2, DEFAULT_RDMA)
        qp2 = engine2.connect(MemoryRegion("m"))

        def proc2(env):
            yield from engine2.read(qp2, 64)
            times["read"] = env.now

        env2.process(proc2(env2))
        env2.run()
        assert times["read"] > times["write"]

    def test_remote_qp_pays_extra_latency(self, env, engine, memory):
        local = engine.connect(memory)
        remote = engine.connect(memory, remote=True)
        ends = {}

        def proc(env, qp, name):
            yield from engine.write(qp, 64)
            ends[name] = env.now

        env.process(proc(env, local, "local"))
        env.run()
        env_r = Environment()
        engine_r = RdmaEngine(env_r, DEFAULT_RDMA)
        mem_r = MemoryRegion("m")
        qp_r = engine_r.connect(mem_r, remote=True)

        def proc_r(env):
            yield from engine_r.write(qp_r, 64)
            ends["remote"] = env.now

        env_r.process(proc_r(env_r))
        env_r.run()
        assert ends["remote"] - ends["local"] == pytest.approx(
            DEFAULT_RDMA.remote_extra_latency)

    def test_issue_serialization_limits_op_rate(self, env, engine, memory):
        qp = engine.connect(memory)
        n = 50

        def proc(env):
            yield from engine.write(qp, 1)

        for _ in range(n):
            env.process(proc(env))
        env.run()
        # 0.1us min gap per op => at least n * 0.1us of issue time
        assert env.now >= n * 0.1

    def test_barrier_read_costs_calibrated_latency(self, env, engine, memory):
        qp = engine.connect(memory)

        def proc(env):
            yield from engine.barrier_read(qp)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value >= DEFAULT_RDMA.barrier_latency

    def test_counters(self, env, engine, memory):
        qp = engine.connect(memory)

        def proc(env):
            yield from engine.write(qp, 100)
            yield from engine.read(qp, 50)

        env.process(proc(env))
        env.run()
        assert qp.ops == 2
        assert qp.bytes_moved == 150
        assert engine.ops_posted == 2

    def test_in_flight_ops_complete_in_post_order(self, env, engine, memory):
        qp = engine.connect(memory)
        done = []

        def writer(env, tag):
            yield from engine.write(qp, 4000)
            done.append((tag, env.now))

        env.process(writer(env, "first"))
        env.process(writer(env, "second"))
        env.run()
        assert [tag for tag, _ in done] == ["first", "second"]
        # the shared issue slot serializes them: strictly later completion
        assert done[0][1] < done[1][1]

    def test_engine_channel_accounts_every_op(self, env, engine, memory):
        qp = engine.connect(memory)

        def proc(env):
            yield from engine.write(qp, 100)
            yield from engine.read(qp, 50)

        env.process(proc(env))
        env.run()
        assert engine.channel.sent == 2
        assert engine.channel.bytes_moved == 150

    def test_bandwidth_dominates_large_transfers(self, env, memory):
        profile = RdmaProfile(bandwidth=1000.0)  # 1000 B/us
        engine = RdmaEngine(Environment(), profile)
        # analytic check only
        assert engine.write_time(100000) == pytest.approx(
            100000 / 1000.0 + profile.op_latency)
