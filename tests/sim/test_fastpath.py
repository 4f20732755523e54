"""Fast-path kernel primitives: fixed delays, detached tasks, counters."""

import pytest

from repro import telemetry
from repro.errors import SimulationError
from repro.sim import Environment, Interrupt
from repro.telemetry.export import format_snapshot


@pytest.fixture
def env():
    return Environment()


class TestChargePool:
    """Fixed-delay charges.  The kernel keeps no free list: generators
    charge with a plain ``timeout``, callback ops with ``defer``, and
    both take one schedule slot."""

    def test_charge_behaves_like_timeout(self, env):
        """A generator's charge is a plain Timeout, so it carries its
        value and may be kept and yielded again after it fired."""
        log = []

        def proc(env):
            first = env.timeout(5.0)
            yield first
            log.append(env.now)
            value = yield env.timeout(2.5, value="v")
            log.append(value)
            yield first  # already fired: resumes at once
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [5.0, "v", 7.5]

    def test_negative_charge_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)
        with pytest.raises(SimulationError):
            env.defer(-1.0, lambda evt: None)

    def test_charge_under_interrupt_fires_harmlessly(self, env):
        """An interrupted waiter abandons its timeout; the event still
        fires (with no callbacks) and the sim goes on."""
        seen = []
        abandoned = []

        def victim(env):
            try:
                delay = env.timeout(10.0)
                abandoned.append(delay)
                yield delay
                seen.append("finished")
            except Interrupt as exc:
                seen.append(("interrupted", exc.cause))
                yield env.timeout(4.0)  # a fresh delay still works
                seen.append(env.now)

        def attacker(env, target):
            yield env.timeout(3.0)
            target.interrupt("die")

        p = env.process(victim(env))
        env.process(attacker(env, p))
        env.run()
        assert seen == [("interrupted", "die"), 7.0]
        assert abandoned[0].processed
        assert env.now == 10.0

    def test_defer_invokes_callback_at_time(self, env):
        fired = []
        env.defer(2.0, lambda evt: fired.append(env.now))
        env.run()
        assert fired == [2.0]

    def test_defer_schedules_the_bare_callback(self, env):
        """No event object: the callback gets None, and a rejected
        negative delay takes no event id."""
        fired = []
        env.defer(1.0, fired.append)
        assert env._eid == 1
        with pytest.raises(SimulationError):
            env.defer(-0.5, fired.append)
        assert env._eid == 1
        env.run()
        assert fired == [None]

    def test_charge_orders_like_timeout_at_equal_time(self, env):
        """Creation order breaks timestamp ties, mixing a generator's
        timeout and a callback op's defer."""
        order = []

        def a(env, delay):
            yield env.timeout(delay)
            order.append(("timeout", env.now))

        env.process(a(env, 5.0))
        env.run(until=1.0)
        env.defer(4.0, lambda _: order.append(("defer", env.now)))
        env.process(a(env, 4.0))
        env.run()
        assert order == [("timeout", 5.0), ("defer", 5.0), ("timeout", 5.0)]


class TestDetached:
    def test_detached_runs_to_completion(self, env):
        log = []

        def task(env):
            yield env.timeout(2.0)
            log.append(env.now)

        env.detached(task(env))
        env.run()
        assert log == [2.0]
        assert env.tasks_spawned == 1
        assert env.processes_spawned == 0

    def test_detached_schedules_no_termination_event(self, env):
        """Same driver loop as a process, one entry fewer: the spawn kick
        and the timeout, but no termination event."""

        def body(env):
            yield env.timeout(1.0)

        env.detached(body(env))
        env.run()
        assert (env._eid, env.events_processed) == (2, 2)
        env.process(body(env))
        env.run()
        assert (env._eid, env.events_processed) == (5, 5)

    def test_detached_failure_crashes_the_run(self, env):
        def task(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.detached(task(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_detached_non_event_yield_crashes_the_run(self, env):
        def task(env):
            yield 42

        env.detached(task(env))
        with pytest.raises(SimulationError, match="non-event"):
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
            yield env.timeout(1.0)
            yield env.timeout(1.0)

        env.process(proc(env))
        env.detached(proc(env))
        env.run()
        assert env.processes_spawned == 1
        assert env.tasks_spawned == 1
        assert env.events_processed > 0
        assert env.heap_peak >= 1
        assert env.wall_seconds >= 0.0

    def test_module_totals_flush_on_run(self):
        def proc(env):
            yield env.timeout(1.0)

        with telemetry.scope() as reg:
            env = Environment()
            env.process(proc(env))
            env.run()
            totals = reg.snapshot("sim.kernel")
            assert (totals["sim.kernel.events_processed"]["value"]
                    == env.events_processed)
            assert totals["sim.kernel.processes_spawned"]["value"] == 1
            # A second run must not double-count the first run's events.
            env2 = Environment()
            env2.process(proc(env2))
            env2.run()
            combined = reg.snapshot("sim.kernel")
        assert combined["sim.kernel.events_processed"]["value"] == (
            env.events_processed + env2.events_processed)
        assert combined["sim.kernel.wall_seconds"]["value"] >= 0.0

    def test_format_snapshot_renders_kernel_counters(self):
        def proc(env):
            yield env.timeout(1.0)

        with telemetry.scope() as reg:
            env = Environment()
            env.process(proc(env))
            env.run()
            text = format_snapshot(reg.snapshot("sim.kernel"))
        assert "sim.kernel.events_processed" in text
        assert "sim.kernel.heap_peak" in text
        # the derived ratio renders as a number, not a raw dict
        line = next(ln for ln in text.splitlines()
                    if "events_per_request" in ln)
        assert "{" not in line
