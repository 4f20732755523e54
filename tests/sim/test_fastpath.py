"""Fast-path kernel primitives: pooled charges, detached tasks, counters."""

import pytest

from repro.errors import SimulationError
from repro.sim import Charge, Environment, Interrupt, Timeout


@pytest.fixture
def env():
    return Environment()


class TestChargePool:
    def test_charge_behaves_like_timeout(self, env):
        log = []

        def proc(env):
            yield env.charge(5.0)
            log.append(env.now)
            value = yield env.charge(2.5, value="v")
            log.append(value)

        env.process(proc(env))
        env.run()
        assert log == [5.0, "v"]
        assert env.now == 7.5

    def test_fired_charge_is_recycled_and_reused(self, env):
        def proc(env):
            yield env.charge(1.0)

        env.process(proc(env))
        # The spawn kick schedules the process's own callback: it takes
        # nothing from the pool and returns nothing to it.
        assert env._charge_pool == []
        env.run()
        # Only the charge came back.
        assert len(env._charge_pool) == 1
        recycled = env._charge_pool[-1]
        assert isinstance(recycled, Charge)
        assert recycled.callbacks == []  # cleared, ready for reuse
        # The next charge must reuse the exact same object.
        again = env.charge(3.0)
        assert again is recycled
        assert env.charges_reused >= 1
        env.run()

    def test_step_also_recycles(self, env):
        env.charge(1.0)
        env.step()
        assert len(env._charge_pool) == 1

    def test_plain_timeout_is_never_pooled(self, env):
        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert all(isinstance(e, Charge) for e in env._charge_pool)
        assert not any(type(e) is Timeout for e in env._charge_pool)

    def test_negative_charge_rejected(self, env):
        with pytest.raises(SimulationError):
            env.charge(-1.0)
        with pytest.raises(SimulationError):
            env.defer(-1.0, lambda evt: None)

    def test_pool_is_capped(self, env):
        def burst(env):
            for _ in range(10):
                yield env.charge(0.1)

        for _ in range(3):
            env.process(burst(env))
        env.run()
        assert len(env._charge_pool) <= Environment.POOL_CAP

    def test_charge_under_interrupt_fires_harmlessly(self, env):
        """An interrupted waiter abandons its charge; the event still
        fires (with no callbacks), is recycled, and the sim goes on."""
        seen = []

        def victim(env):
            try:
                yield env.charge(10.0)
                seen.append("finished")
            except Interrupt as exc:
                seen.append(("interrupted", exc.cause))
                yield env.charge(4.0)  # a fresh charge still works
                seen.append(env.now)

        def attacker(env, target):
            yield env.charge(3.0)
            target.interrupt("die")

        p = env.process(victim(env))
        env.process(attacker(env, p))
        env.run()
        assert seen == [("interrupted", "die"), 7.0]
        # Both the abandoned charge (fired at t=10 with no waiters) and
        # the others are back in the pool.
        assert len(env._charge_pool) >= 2

    def test_defer_invokes_callback_at_time(self, env):
        fired = []
        env.defer(2.0, lambda evt: fired.append(env.now))
        env.run()
        assert fired == [2.0]

    def test_defer_schedules_the_bare_callback(self, env):
        """No event object: the callback gets None, the pool is
        untouched, and a rejected negative delay takes no event id."""
        fired = []
        env.defer(1.0, fired.append)
        assert env._eid == 1
        with pytest.raises(SimulationError):
            env.defer(-0.5, fired.append)
        assert env._eid == 1
        env.run()
        assert fired == [None]
        assert env._charge_pool == []
        assert env.charges_created == env.charges_reused == 0

    def test_charge_orders_like_timeout_at_equal_time(self, env):
        """Creation order breaks timestamp ties, mixing both kinds."""
        order = []

        def a(env):
            yield env.timeout(5.0)
            order.append("timeout")

        def b(env):
            yield env.charge(5.0)
            order.append("charge")

        env.process(a(env))
        env.process(b(env))
        env.run()
        assert order == ["timeout", "charge"]


class TestImmediate:
    def test_immediate_resumes_synchronously(self, env):
        log = []

        def proc(env):
            value = yield env.immediate(99)
            log.append((env.now, value, env.events_processed))

        env.process(proc(env))
        env.run()
        # Only the spawn kick was dispatched; the immediate scheduled
        # nothing and the clock never moved.
        assert log == [(0.0, 99, 0)]

    def test_immediate_is_reused(self, env):
        assert env.immediate(1) is env.immediate(2)


class TestDetached:
    def test_detached_runs_to_completion(self, env):
        log = []

        def task(env):
            yield env.charge(2.0)
            log.append(env.now)

        env.detached(task(env))
        env.run()
        assert log == [2.0]
        assert env.tasks_spawned == 1
        assert env.processes_spawned == 0

    def test_task_driver_is_pooled(self, env):
        def task(env):
            yield env.charge(1.0)

        env.detached(task(env))
        env.run()
        assert len(env._task_pool) == 1
        driver = env._task_pool[-1]
        env.detached(task(env))
        assert not env._task_pool  # reused, not reallocated
        env.run()
        assert env._task_pool[-1] is driver

    def test_detached_failure_crashes_the_run(self, env):
        def task(env):
            yield env.charge(1.0)
            raise RuntimeError("boom")

        env.detached(task(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_detached_can_wait_on_regular_events(self, env):
        evt = env.event()
        got = []

        def task(env):
            got.append((yield evt))

        env.detached(task(env))
        evt.succeed("x")
        env.run()
        assert got == ["x"]


class TestConditionScale:
    def test_thousand_event_all_of(self, env):
        """Regression for the O(n^2) rescan: a 1000-child all_of must
        fire with the right value set (and in reasonable time)."""
        timeouts = [env.timeout(float(i % 7), value=i) for i in range(1000)]
        got = []

        def proc(env):
            result = yield env.all_of(timeouts)
            got.append(result)

        env.process(proc(env))
        env.run()
        assert len(got) == 1
        assert sorted(got[0].values()) == list(range(1000))

    def test_incremental_count_matches_rescan_semantics(self, env):
        """any_of over a mix of already-processed and pending children."""
        done = env.timeout(0.0, value="early")
        env.run(until=1.0)  # process `done`
        pending = env.timeout(5.0, value="late")
        got = []

        def proc(env):
            got.append((yield env.any_of([done, pending])))

        env.process(proc(env))
        env.run()
        assert got == [{done: "early"}]


class TestKernelCounters:
    def test_counters_accumulate(self, env):
        def proc(env):
            yield env.charge(1.0)
            yield env.timeout(1.0)

        env.process(proc(env))
        env.detached(proc(env))
        env.run()
        stats = env.kernel_stats()
        assert stats["processes_spawned"] == 1
        assert stats["tasks_spawned"] == 1
        assert stats["events_processed"] > 0
        assert stats["heap_peak"] >= 1
        assert stats["charges_created"] + stats["charges_reused"] >= 2
        assert stats["wall_seconds"] >= 0.0

    def test_module_totals_flush_on_run(self):
        from repro.sim import kernel_totals, reset_kernel_totals

        reset_kernel_totals()
        env = Environment()

        def proc(env):
            yield env.charge(1.0)

        env.process(proc(env))
        env.run()
        totals = kernel_totals()
        assert totals["events_processed"] == env.events_processed
        assert totals["processes_spawned"] == 1
        # A second run must not double-count the first run's events.
        env2 = Environment()
        env2.process(proc(env2))
        env2.run()
        combined = kernel_totals()
        assert combined["events_processed"] == (
            env.events_processed + env2.events_processed)
        assert combined["events_per_sec"] >= 0.0

    def test_format_kernel_stats_renders(self, env):
        from repro.sim.stats import format_kernel_stats

        def proc(env):
            yield env.charge(1.0)

        env.process(proc(env))
        env.run()
        text = format_kernel_stats(env.kernel_stats())
        assert "events processed" in text
        assert "events/sec" in text
