"""Resource (counted slots + waiter queue) behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt, Resource
from repro.sim.events import NORMAL


@pytest.fixture
def env():
    return Environment()


def hold(env, res, duration, log, name, priority=0):
    with res.request(priority=priority) as req:
        yield req
        log.append(("start", name, env.now))
        yield env.timeout(duration)
        log.append(("end", name, env.now))


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, 0)

    def test_serializes_at_capacity_one(self, env):
        res = Resource(env, 1)
        log = []
        env.process(hold(env, res, 5, log, "a"))
        env.process(hold(env, res, 3, log, "b"))
        env.run()
        assert log == [("start", "a", 0), ("end", "a", 5),
                       ("start", "b", 5), ("end", "b", 8)]

    def test_parallelism_at_capacity_two(self, env):
        res = Resource(env, 2)
        log = []
        for name in "abc":
            env.process(hold(env, res, 10, log, name))
        env.run()
        starts = {name: t for op, name, t in log if op == "start"}
        assert starts == {"a": 0, "b": 0, "c": 10}

    def test_fifo_order_among_equal_priorities(self, env):
        res = Resource(env, 1)
        log = []
        for name in "abcd":
            env.process(hold(env, res, 1, log, name))
        env.run()
        assert [name for op, name, _ in log if op == "start"] == list("abcd")

    def test_lower_priority_value_served_first(self, env):
        res = Resource(env, 1)
        log = []
        env.process(hold(env, res, 5, log, "first"))
        env.process(hold(env, res, 1, log, "normal", priority=0))
        env.process(hold(env, res, 1, log, "urgent", priority=-1))
        env.run()
        order = [name for op, name, _ in log if op == "start"]
        assert order == ["first", "urgent", "normal"]

    def test_release_is_idempotent(self, env):
        res = Resource(env, 1)

        def proc(env):
            req = res.request()
            yield req
            req.release()
            req.release()

        env.process(proc(env))
        env.run()
        assert res.in_use == 0

    def test_release_of_interrupted_waiter_withdraws_it(self, env):
        """A waiter interrupted mid-``yield req`` releases its request on
        the way out; that must withdraw it, not leave it queued to be
        granted a slot nobody will return."""
        res = Resource(env, 1)
        log = []

        def waiter(env):
            try:
                with res.request() as req:
                    yield req
                    log.append(("start", "waiter", env.now))
            except Interrupt:
                log.append(("interrupted", "waiter", env.now))

        def interrupt_at(env, proc, when):
            yield env.timeout(when)
            proc.interrupt()

        def late(env):
            yield env.timeout(20)
            yield from hold(env, res, 1, log, "late")

        env.process(hold(env, res, 10, log, "holder"))
        interrupted = env.process(waiter(env))
        env.process(interrupt_at(env, interrupted, 5))
        env.process(late(env))
        env.run()
        assert log == [("start", "holder", 0), ("interrupted", "waiter", 5),
                       ("end", "holder", 10), ("start", "late", 20),
                       ("end", "late", 21)]
        assert res.in_use == 0 and res.waiting == 0

    def test_execute_helper(self, env):
        res = Resource(env, 1)

        def proc(env):
            yield from res.execute(7)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 7

    def test_utilization_tracked(self, env):
        res = Resource(env, 1)
        log = []
        env.process(hold(env, res, 10, log, "a"))
        env.run(until=20)
        assert res.utilization.mean() == pytest.approx(0.5)

    def test_counts_in_use_and_waiting(self, env):
        res = Resource(env, 1)
        log = []
        env.process(hold(env, res, 10, log, "a"))
        env.process(hold(env, res, 10, log, "b"))
        env.run(until=5)
        assert res.in_use == 1
        assert res.waiting == 1


def _run_claims(twin):
    """One slot, a holder and five waiters of mixed kinds and priorities.

    With *twin* ``"callback"`` the waiters ``w2`` and ``w4`` claim with
    ``acquire_then``/``release_slot``; with ``"event"`` every claim is a
    :class:`Request`.  ``w5`` is a Request cancelled while waiting.  Each
    holder keeps the slot 1us.  Any difference in grant order, times,
    ``env._eid`` or the gauges comes from the callback twin.
    """
    env = Environment()
    res = Resource(env, 1)
    grants = []

    def claim(tag, priority, callback_twin):
        def granted(_arg, req=None):
            grants.append((tag, env.now))
            env.defer(1.0, lambda _a: (req.release() if req is not None
                                       else res.release_slot()))

        if callback_twin:
            res.acquire_then(granted, priority)
            return None
        req = res.request(priority)
        req.callbacks.append(lambda evt: granted(evt, req))
        return req

    callback = twin == "callback"
    claim("holder", 0, False)
    claim("w1", 0, False)
    claim("w2", 0, callback)
    claim("w3", -1, False)
    claim("w4", -1, callback)
    cancelled = claim("w5", -2, False)
    env.defer(0.5, lambda _a: cancelled.cancel())
    env.run()
    return (grants, env._eid, res.in_use, res.utilization.mean(),
            res.queue_depth.mean(), res.queue_depth.max())


class TestAcquireThenParity:
    """``acquire_then``/``release_slot`` consume the event ids of
    ``request``/``release`` and share one waiter order with them."""

    def test_matches_request(self):
        got = _run_claims("callback")
        want = _run_claims("event")
        assert got == want
        grants, _, in_use, _, _, depth_max = got
        # Priority first, FIFO within a priority; the cancelled w5 is
        # skipped although its priority is the lowest value.
        assert grants == [("holder", 0.0), ("w3", 1.0), ("w4", 2.0),
                          ("w1", 3.0), ("w2", 4.0)]
        assert in_use == 0 and depth_max == 5

    def test_release_slot_on_idle_resource_rejected(self, env):
        res = Resource(env, 1)
        with pytest.raises(SimulationError):
            res.release_slot()



def _run_holds(twin):
    """:func:`_run_claims`'s one slot, holder and five waiters, each
    claim holding the slot 1us.

    With *twin* ``"hold"`` the holder, ``w2`` and ``w4`` claim with
    ``try_hold`` and fall back to ``acquire_then`` when it refuses; with
    ``"event"`` every claim is a :class:`Request`.  Also returns the
    claims ``try_hold`` took: each pushes its release entry itself, one
    event id fewer than a Request's grant and timer.
    """
    env = Environment()
    res = Resource(env, 1)
    grants = []
    held = []

    def claim(tag, priority, hold_twin):
        def release(_arg, req=None):
            if req is None:
                res.release_slot()
            else:
                req.release()

        def granted(_arg, req=None):
            grants.append((tag, env.now))
            env.defer(1.0, lambda _a: release(_a, req))

        if hold_twin:
            claimed_at = env.now
            if res.try_hold(1.0, release):
                grants.append((tag, claimed_at))
                held.append(tag)
            else:
                res.acquire_then(granted, priority)
            return None
        req = res.request(priority)
        req.callbacks.append(lambda evt: granted(evt, req))
        return req

    hold = twin == "hold"
    claim("holder", 0, hold)
    claim("w1", 0, False)
    claim("w2", 0, hold)
    claim("w3", -1, False)
    claim("w4", -1, hold)
    cancelled = claim("w5", -2, False)
    env.defer(0.5, lambda _a: cancelled.cancel())
    env.run()
    return (grants, env._eid, res.in_use, res.utilization.mean(),
            res.utilization.max(), res.queue_depth.mean(),
            res.queue_depth.max()), held


class TestTryHoldParity:
    """``try_hold`` takes the slot a free claim would, moves both gauges
    as ``request`` does and shares the waiter order; it only drops the
    grant event of an idle slot."""

    def test_matches_request(self):
        got, held = _run_holds("hold")
        want, _ = _run_holds("event")
        # Only the holder finds the slot free; w2 and w4 park through
        # acquire_then.
        assert held == ["holder"]
        assert got[1] == want[1] - 1
        assert got[:1] + got[2:] == want[:1] + want[2:]
        grants, _, in_use, util_mean, util_max, _, depth_max = got
        # Priority first, FIFO within a priority; the cancelled w5 is
        # skipped.
        assert grants == [("holder", 0.0), ("w3", 1.0), ("w4", 2.0),
                          ("w1", 3.0), ("w2", 4.0)]
        assert in_use == 0 and depth_max == 5
        assert util_mean == 1.0 and util_max == 1.0

    def test_idle_hold_pushes_one_entry(self, env):
        res = Resource(env, 2)
        seen = []
        assert res.try_hold(3.0, lambda arg: seen.append((arg, env.now)),
                            "tag")
        assert res.in_use == 1 and res.utilization._value == 0.5
        assert [entry[:3] for entry in env._queue] == [(3.0, NORMAL, 0)]
        env.run()
        assert seen == [("tag", 3.0)] and res.in_use == 1

    def test_refuses_behind_a_parked_waiter(self, env):
        """A free slot with a waiter parked: ``try_hold`` changes
        nothing, so the claim can park behind it (the state is built
        directly, as the resource never leaves it)."""
        res = Resource(env, 2)
        res._park(0, None, lambda _a: None)
        assert not res.try_hold(1.0, lambda _a: None)
        assert res.in_use == 0 and res.waiting == 1
        assert env._queue == [] and env._eid == 0
        assert res.utilization._value == 0.0

    def test_refuses_when_full(self, env):
        res = Resource(env, 1)
        assert res.try_hold(1.0, lambda _a: None)
        assert not res.try_hold(1.0, lambda _a: None)
        assert res.in_use == 1 and env._eid == 1


def _run_fast_and_slow(twin):
    """Two slots, claims that find a slot idle (``a``, ``b``, ``f``,
    ``g``) and claims that park behind them (``c``, ``d``, ``e``).

    With *twin* ``"callback"`` every claim is ``acquire_then`` /
    ``release_slot`` (the inline idle grant and the waiter-free
    release); with ``"event"`` every claim is a :class:`Request`.
    Also returns how many callback claims found a slot idle: each runs
    its callback inline, without the grant event a Request schedules.
    """
    env = Environment()
    res = Resource(env, 2)
    grants = []
    idle_grants = []

    def claim(tag, hold, priority):
        def granted(_arg, req=None):
            grants.append((tag, env.now))
            env.defer(hold, lambda _a: (req.release() if req is not None
                                        else res.release_slot()))

        if twin == "callback":
            if res.in_use < res.capacity and not res.waiting:
                idle_grants.append(tag)
            res.acquire_then(granted, priority)
        else:
            req = res.request(priority)
            req.callbacks.append(lambda evt: granted(evt, req))

    for when, tag, hold, priority in (
            (0.0, "a", 2.0, 0), (0.0, "b", 1.0, 0), (0.0, "c", 1.0, 0),
            (0.5, "d", 1.0, -1), (0.5, "e", 1.0, 0), (5.0, "f", 1.0, 0),
            (7.0, "g", 2.0, 0)):
        env.defer(when, lambda _a, t=tag, h=hold, p=priority: claim(t, h, p))
    env.run()
    stats = {key: getattr(env, key) for key in (
        "events_processed", "processes_spawned", "tasks_spawned",
        "requests_completed", "heap_peak")}
    return (grants, env._eid, res.in_use, res.waiting,
            res.utilization.mean(), res.utilization.max(),
            res.queue_depth.mean(), res.queue_depth.max(),
            stats), len(idle_grants)


class TestUncontendedFastPath:
    """The inline idle grant and the release that skips the regrant
    keep what the general path gives: grant order and times, both
    gauges and the kernel counters, minus one event per idle grant."""

    def test_matches_request_path(self):
        got, collapsed = _run_fast_and_slow("callback")
        want, _ = _run_fast_and_slow("event")
        # a, b, f and g find a slot free; c, d and e park.
        assert collapsed == 4
        assert got[1] == want[1] - collapsed
        got_stats, want_stats = dict(got[8]), dict(want[8])
        assert got_stats.pop("events_processed") == (
            want_stats.pop("events_processed") - collapsed)
        assert got_stats == want_stats
        assert got[:1] + got[2:8] == want[:1] + want[2:8]
        grants, _, in_use, waiting, util_mean, util_max, depth_mean, \
            depth_max, stats = want
        # d outranks c (priority -1) for b's slot; a's release at 2.0
        # precedes d's (earlier eid), so c, then e.
        assert grants == [("a", 0.0), ("b", 0.0), ("d", 1.0), ("c", 2.0),
                          ("e", 2.0), ("f", 5.0), ("g", 7.0)]
        assert in_use == 0 and waiting == 0
        # Both slots busy over 0-3, one over 5-6 and 7-9, of a 9us run.
        assert util_mean == pytest.approx(4.5 / 9.0) and util_max == 1.0
        assert depth_max == 3
        # c waits 0-2, d 0.5-1, e 0.5-2 over a 9us run.
        assert depth_mean == pytest.approx((2.0 + 0.5 + 1.5) / 9.0)
        # Request path: 7 claim timers, 7 grants, 7 releases; one eid
        # per event.
        assert stats["events_processed"] == 21 == want[1]

    def test_idle_claim_runs_inline(self, env):
        res = Resource(env, 1)
        seen = []
        res.acquire_then(lambda arg: seen.append((arg, res.in_use)))
        assert seen == [(None, 1)]
        assert env._queue == [] and env._eid == 0

    def test_claim_queues_behind_a_parked_waiter(self, env):
        """A free slot with a waiter parked: the new claim parks behind
        it instead of overtaking it.  The resource never leaves a slot
        free while a waiter is parked, so the state is built directly."""
        res = Resource(env, 2)
        seen = []
        res._park(0, None, lambda _a: seen.append("parked"))
        res.acquire_then(lambda _a: seen.append("late"))
        assert seen == [] and res.in_use == 0 and res.waiting == 2
