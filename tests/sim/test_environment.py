"""Environment scheduling and run-loop behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def ticker(env, period, log):
    while True:
        yield env.timeout(period)
        log.append(env.now)


class TestRun:
    def test_run_until_time_stops_clock_exactly(self, env):
        log = []
        env.process(ticker(env, 10, log))
        env.run(until=35)
        assert env.now == 35
        assert log == [10, 20, 30]

    def test_run_until_event_returns_its_value(self, env):
        def proc(env):
            yield env.timeout(4)
            return "done"

        p = env.process(proc(env))
        assert env.run(until=p) == "done"
        assert env.now == 4

    def test_run_until_processed_timeout_returns_its_value(self, env):
        done = env.timeout(3, value="v")
        env.run()
        later = env.timeout(5)
        assert env.run(until=done) == "v"
        # Nothing ran: the clock stayed put and the later entry waits.
        assert env.now == 3
        assert not later.processed

    def test_run_until_finished_process_returns_its_value(self, env):
        def proc(env):
            yield env.timeout(4)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert env.run(until=p) == "done"
        assert env.now == 4

    def test_run_until_processed_failure_raises_it(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter(env, p):
            try:
                yield p
            except ValueError:
                pass

        p = env.process(proc(env))
        env.process(waiter(env, p))
        env.run()
        with pytest.raises(ValueError, match="boom"):
            env.run(until=p)

    def test_run_drains_schedule_when_no_until(self, env):
        def proc(env):
            yield env.timeout(1)
            yield env.timeout(2)

        env.process(proc(env))
        assert env.run() is None
        assert env.now == 3

    def test_run_until_past_time_rejected(self, env):
        env.run(until=10)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_run_can_resume(self, env):
        log = []
        env.process(ticker(env, 10, log))
        env.run(until=15)
        env.run(until=45)
        assert log == [10, 20, 30, 40]

    def test_run_until_event_that_never_fires(self, env):
        evt = env.event()

        def proc(env):
            yield env.timeout(1)

        env.process(proc(env))
        with pytest.raises(SimulationError, match="never fired"):
            env.run(until=evt)

    def test_time_never_goes_backwards(self, env):
        observed = []

        def proc(env, delay):
            yield env.timeout(delay)
            observed.append(env.now)

        for delay in [5, 1, 9, 1, 7, 3]:
            env.process(proc(env, delay))
        env.run()
        assert observed == sorted(observed)
