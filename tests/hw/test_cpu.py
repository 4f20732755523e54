"""CPU core pool / socket models."""

import pytest

from repro.config import BLUEFIELD_ARM, DEFAULT_CACHE, XEON_E5_2620
from repro.errors import ConfigError
from repro.hw.cache import LLCModel
from repro.hw.cpu import CorePool, CpuSocket
from repro.sim import Environment, Resource, RngRegistry


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def rng():
    return RngRegistry(0).stream("test")


class TestCorePool:
    def test_calibrated_work_charges_exact_duration(self, env):
        pool = CorePool(env, XEON_E5_2620, count=1)

        def proc(env):
            yield from pool.run_calibrated(12.5)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 12.5

    def test_compute_scales_with_speed_factor(self, env):
        arm = CorePool(env, BLUEFIELD_ARM, count=1)

        def proc(env):
            yield from arm.run_compute(33.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(33.0 / BLUEFIELD_ARM.speed_factor)

    def test_one_core_serializes(self, env):
        pool = CorePool(env, XEON_E5_2620, count=1)
        ends = []

        def proc(env):
            yield from pool.run_calibrated(10)
            ends.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert ends == [10, 20]

    def test_negative_duration_rejected(self, env):
        pool = CorePool(env, XEON_E5_2620, count=1)
        env.process(pool.run_calibrated(-1))
        with pytest.raises(ConfigError):
            env.run()
        with pytest.raises(ConfigError):
            pool.run_then(-1, lambda: None)

    def test_pool_parallelism(self, env):
        pool = CorePool(env, XEON_E5_2620, count=3)
        ends = []

        def proc(env):
            yield from pool.run_calibrated(10)
            ends.append(env.now)

        for _ in range(6):
            env.process(proc(env))
        env.run()
        assert ends == [10, 10, 10, 20, 20, 20]

    def test_pool_requires_core(self, env):
        with pytest.raises(ConfigError):
            CorePool(env, XEON_E5_2620, count=0)

    def test_priority_orders_contended_work(self, env):
        pool = CorePool(env, XEON_E5_2620, count=1)
        order = []

        def work(env, name, priority):
            yield from pool.run_calibrated(5, priority=priority)
            order.append(name)

        def spawner(env):
            env.process(work(env, "hog", 0))
            yield env.timeout(1)
            env.process(work(env, "ingress", 0))
            env.process(work(env, "egress", -1))

        env.process(spawner(env))
        env.run()
        assert order == ["hog", "egress", "ingress"]

    def test_pool_defaults_apply_cache_pressure(self, env, rng):
        llc = LLCModel(env, 100, DEFAULT_CACHE, rng)
        llc.occupy(10000)  # an external aggressor overflowing the LLC
        pool = CorePool(env, XEON_E5_2620, count=1, llc=llc)
        pool.default_memory_intensity = 1.0
        pool.default_working_set = 50

        def proc(env):
            yield from pool.run_calibrated(10)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value > 10  # slowed by contention


class TestCpuSocket:
    def test_pool_factory_shares_llc(self, env, rng):
        socket = CpuSocket(env, XEON_E5_2620, DEFAULT_CACHE, rng)
        pool = socket.pool(count=2)
        assert pool.llc is socket.llc
        assert pool.count == 2
        assert socket.pools == [pool]


def _run_legs(twin, working_set, aggressor_bytes):
    """Three contended legs on a one-core pool, by generator or callback.

    Both twins start each leg from the same pooled kick (``detached``
    and ``_kick`` consume one URGENT id each), so any difference in
    finish times or ``env._eid`` comes from the legs themselves.  Also
    returns how many callback-twin legs found a core idle: each is
    granted inline, without the grant event a ``Request`` schedules.
    """
    env = Environment()
    llc = LLCModel(env, 100, DEFAULT_CACHE, RngRegistry(7).stream("llc"))
    llc.occupy(aggressor_bytes)
    pool = CorePool(env, XEON_E5_2620, count=1, llc=llc)
    pool.default_memory_intensity = 0.5
    pool.default_working_set = working_set
    done = []
    idle_grants = []

    def start(tag, duration, priority):
        def finish():
            done.append((tag, env.now, llc.total_working_set))

        if twin == "generator":
            def leg():
                yield from pool.run_calibrated(duration, priority=priority)
                finish()
            env.detached(leg())
        else:
            def begin(_e):
                if pool.in_use < pool.count and not pool.queue_depth:
                    idle_grants.append(tag)
                pool.run_then(duration, finish, priority=priority)
            env._kick(begin)

    start("a", 10.0, 0)
    start("b", 5.0, 0)
    env.defer(1.0, lambda _e: start("egress", 2.0, -1))
    env.run()
    return (done, env._eid, llc.total_working_set), len(idle_grants)


class TestRunThenParity:
    """``run_then`` takes the steps of ``run_calibrated``; an idle core's
    grant runs inline, one event id fewer per such leg."""

    @pytest.mark.parametrize("working_set", [0, 50])
    @pytest.mark.parametrize("aggressor_bytes", [0, 80])
    def test_matches_generator(self, working_set, aggressor_bytes):
        got, collapsed = _run_legs("callback", working_set, aggressor_bytes)
        want, _ = _run_legs("generator", working_set, aggressor_bytes)
        # Only a, at t=0, finds the core free; b and egress queue.
        assert collapsed == 1
        assert got[1] == want[1] - collapsed
        assert (got[0], got[2]) == (want[0], want[2])
        done, _, resident = got
        assert [tag for tag, _, _ in done] == ["a", "egress", "b"]
        # Each leg's working set is resident only while it runs.
        assert resident == aggressor_bytes
        if working_set and aggressor_bytes:
            # Only the leg's own 50 B pushes the 100 B LLC past capacity.
            assert done[0][1] > 10.0
        else:
            assert [t for _, t, _ in done] == [10.0, 12.0, 17.0]

    def test_llc_pressure_takes_the_general_path(self, monkeypatch):
        """An over-subscribed LLC: a leg with memory intensity draws its
        penalty, so it claims through ``acquire_then``, bit for bit the
        generator's schedule, and ``try_hold`` takes nothing."""
        held = []
        try_hold = Resource.try_hold

        def counting(res, duration, handler, arg=None):
            ok = try_hold(res, duration, handler, arg)
            if ok:
                held.append(res.name)
            return ok

        monkeypatch.setattr(Resource, "try_hold", counting)
        got, collapsed = _run_legs("callback", 0, 150)
        want, _ = _run_legs("generator", 0, 150)
        assert held == [] and collapsed == 1
        assert got[1] == want[1] - collapsed
        assert (got[0], got[2]) == (want[0], want[2])
        # The penalty was drawn: every leg runs longer than its cost.
        assert [t for _, t, _ in got[0]] != [10.0, 12.0, 17.0]

    def test_leg_records_are_recycled(self, env, rng):
        """A leg with an LLC effect (here a working set to occupy) runs
        on a pooled record, which the next leg reuses."""
        pool = CorePool(env, XEON_E5_2620, count=1,
                        llc=LLCModel(env, 100, DEFAULT_CACHE, rng))
        pool.default_working_set = 10
        order = []

        def second():
            order.append(env.now)

        pool.run_then(1.0, lambda: pool.run_then(2.0, second))
        env.run()
        assert order == [3.0]
        assert len(pool._legs) == 1

    def test_leg_without_llc_effect_takes_no_record(self, env):
        """An idle core and no LLC effect: ``Resource.try_hold`` pushes
        the charge entry itself, with no leg record and no grant."""
        pool = CorePool(env, XEON_E5_2620, count=1)
        order = []

        def second():
            order.append(env.now)

        pool.run_then(1.0, lambda: pool.run_then(2.0, second))
        env.run()
        assert order == [3.0]
        assert pool._legs == [] and env._eid == 2
