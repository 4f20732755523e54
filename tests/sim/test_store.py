"""Store channel behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Channel, Environment, Store, Tracer
from repro.sim.trace import clear_enabled_tracers


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for i in range(5):
                yield store.put(i)

        def consumer(env):
            for _ in range(5):
                got.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(9)
            yield store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (9.0, "late")

    def test_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)

        def producer(env):
            yield store.put(1)
            yield store.put(2)  # blocks until the consumer frees a slot
            return env.now

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        p = env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert p.value == 5.0

    def test_try_put_respects_capacity(self, env):
        store = Store(env, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        env.run()
        assert len(store) == 2

    def test_try_put_hands_to_waiting_getter(self, env):
        store = Store(env, capacity=1)

        def consumer(env):
            item = yield store.get()
            return item

        c = env.process(consumer(env))
        env.run(until=1)
        assert store.try_put("direct")
        env.run()
        assert c.value == "direct"

    def test_try_get(self, env):
        store = Store(env)
        assert store.try_get() is None
        store.try_put("x")
        env.run()
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_total_put_counts(self, env):
        store = Store(env)
        for i in range(3):
            store.try_put(i)
        env.run()
        assert store.total_put == 3

    def test_items_snapshot(self, env):
        store = Store(env)
        store.try_put("a")
        store.try_put("b")
        assert store.items == ("a", "b")


def _run_gets(twin, traced):
    """Parked and immediate gets, by event callback or by ``get_then``.

    One capacity-1 store (a traced Channel when *traced*): two consumers
    park on the empty store, three non-blocking puts wake them and fill
    the one slot, a blocking put parks behind it, and two late consumers
    take the queued item (waking the parked putter) and the putter's
    item.  Any difference in finish order, ``env._eid`` or the trace
    comes from the get twin.
    """
    env = Environment()
    if traced:
        env.tracer = Tracer(env, enabled=True)
    try:
        store = (Channel(env, name="ring", capacity=1) if traced
                 else Store(env, capacity=1))
        done = []

        def consume(tag):
            def got(item):
                done.append((tag, item, env.now))

            if twin == "event":
                store.get().callbacks.append(lambda evt: got(evt._value))
            else:
                store.get_then(got)

        def produce(_arg):
            accepted = [store.try_put(item) for item in "abcd"]
            assert accepted == [True, True, True, False]
            store.put("e")

        consume("p")
        consume("q")
        env.defer(1.0, produce)
        env.defer(2.0, lambda _arg: consume("r"))
        env.defer(3.0, lambda _arg: consume("s"))
        env.run()
        records = env.tracer.filter(channel="ring") if traced else None
        return done, env._eid, store.total_put, records
    finally:
        clear_enabled_tracers()


class TestGetThenParity:
    """``get_then`` consumes the event ids of ``get()`` and delivers the
    same items in the same order."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_matches_get(self, traced):
        got = _run_gets("callback", traced)
        want = _run_gets("event", traced)
        assert got == want
        done, _, total_put, records = got
        assert done == [("p", "a", 1.0), ("q", "b", 1.0), ("r", "c", 2.0),
                        ("s", "e", 3.0)]
        assert total_put == 4
        if traced:
            deqs = [rec for rec in records if rec[2] == "deq"]
            assert len(deqs) == 4

    def test_purge_drops_a_parked_callback(self, env):
        store = Store(env)
        got = []
        store.get_then(got.append)
        assert store.purge_waiters() == (1, 0)
        assert store.try_put("x")
        env.run()
        assert got == []
        assert store.items == ("x",)


class TestTryPutSchedulesNothing:
    def test_accepted_item_takes_no_event_id(self, env):
        store = Store(env, capacity=2)
        eid = env._eid
        assert store.try_put("a") and store.try_put("b")
        assert not store.try_put("c")
        assert env._eid == eid and env._queue == []
        assert store.items == ("a", "b")

    def test_wake_takes_only_the_getter_slot(self, env):
        store = Store(env)
        got = []
        store.get_then(got.append)
        eid = env._eid
        assert store.try_put("a")
        assert env._eid == eid + 1
        env.run()
        assert got == ["a"]

    def test_blocking_put_still_fires(self, env):
        store = Store(env)
        put = store.put("a")
        assert put.triggered
        env.run()
        assert put.processed and put.ok
