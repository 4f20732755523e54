"""The unified Channel hop (DESIGN.md §4.7)."""

from collections import deque
from types import SimpleNamespace

import pytest

from repro.errors import CapacityError, SimulationError
from repro.sim import Channel, Environment, Tracer
from repro.sim.trace import clear_enabled_tracers


@pytest.fixture
def env():
    return Environment()


class TestBuffering:
    def test_fifo_order(self, env):
        ch = Channel(env, name="fifo")
        for item in ("a", "b", "c"):
            ch.put(item)
        assert [ch.try_get() for _ in range(3)] == ["a", "b", "c"]

    def test_capacity_bounds_try_put(self, env):
        ch = Channel(env, name="ring", capacity=2)
        assert ch.try_put(1)
        assert ch.try_put(2)
        assert not ch.try_put(3)

    def test_recv_batch_bounded_and_unbounded(self, env):
        ch = Channel(env, name="batch")
        for i in range(5):
            ch.put(i)
        assert ch.recv_batch(max_items=2) == [0, 1]
        assert ch.recv_batch() == [2, 3, 4]
        assert ch.recv_batch() == []

    def test_recv_batch_wakes_parked_putter(self, env):
        ch = Channel(env, name="bounded", capacity=2)
        done = []
        got = []

        def producer(env):
            for i in range(4):
                yield ch.put(i)
            done.append(env.now)

        def consumer(env):
            yield env.timeout(1.0)
            got.extend(ch.recv_batch())
            yield env.timeout(1.0)
            got.extend(ch.recv_batch())

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2, 3]
        assert done  # producer unblocked by the batched drain


class TestCostModel:
    def test_occupancy_from_bandwidth(self, env):
        ch = Channel(env, bandwidth=100.0)  # bytes/us
        assert ch.occupancy(500) == pytest.approx(5.0)

    def test_min_occupancy_floor(self, env):
        ch = Channel(env, bandwidth=100.0, min_occupancy=0.5)
        assert ch.occupancy(1) == pytest.approx(0.5)
        assert ch.occupancy(500) == pytest.approx(5.0)

    def test_occupancy_without_bandwidth_is_floor(self, env):
        ch = Channel(env, min_occupancy=0.25)
        assert ch.occupancy(10 ** 6) == pytest.approx(0.25)

    def test_transfer_charges_occupancy_then_latency(self, env):
        ch = Channel(env, bandwidth=100.0, latency=2.0)

        def proc(env):
            yield from ch.transfer(100)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0 + 2.0)
        assert ch.sent == 1
        assert ch.bytes_moved == 100

    def test_post_latency_overrides_channel_latency(self, env):
        ch = Channel(env, bandwidth=100.0, latency=2.0)

        def proc(env):
            yield from ch.transfer(100, post_latency=0.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0)

    def test_serialized_transfers_queue_on_issue_slot(self, env):
        ch = Channel(env, serialized=True, bandwidth=10.0)
        ends = []

        def proc(env):
            yield from ch.transfer(100)  # 10us occupancy each
            ends.append(env.now)

        for _ in range(3):
            env.process(proc(env))
        env.run()
        assert ends == pytest.approx([10.0, 20.0, 30.0])

    def test_negative_transfer_rejected(self, env):
        ch = Channel(env)
        with pytest.raises(SimulationError):
            next(ch.transfer(-1))
        with pytest.raises(SimulationError):
            ch.transfer_then(-1, lambda: None)


def _run_transfers(twin, serialized, latency):
    """Three overlapping transfers, by generator or by callback.

    Both twins start each transfer from one pooled URGENT kick, so any
    difference in finish times, ``env._eid`` or the trace comes from the
    hop itself.  Also returns how many callback-twin transfers found the
    issue slot idle: each is granted inline, without the grant event a
    ``Request`` schedules.
    """
    env = Environment()
    env.tracer = Tracer(env, enabled=True)
    try:
        ch = Channel(env, name="hop", serialized=serialized, bandwidth=10.0,
                     latency=latency)
        done = []
        idle_grants = []

        def start(tag, nbytes, **kwargs):
            def finish():
                done.append((tag, env.now))

            if twin == "generator":
                def hop():
                    yield from ch.transfer(nbytes, **kwargs)
                    finish()
                env.detached(hop())
            else:
                def begin(_e):
                    issue = ch.issue
                    if (issue is not None and issue.in_use < issue.capacity
                            and not issue.waiting):
                        idle_grants.append(tag)
                    ch.transfer_then(nbytes, finish, **kwargs)
                env._kick(begin)

        start("a", 100)
        start("b", 20, occupancy=0.5)
        env.defer(1.0, lambda _e: start("c", 0, post_latency=3.0))
        env.run()
        return (done, env._eid, ch.sent, ch.bytes_moved,
                env.tracer.filter(channel="hop")), len(idle_grants)
    finally:
        clear_enabled_tracers()


class TestTransferThenParity:
    """``transfer_then`` takes the steps of ``transfer``; an idle issue
    slot's grant runs inline, one event id fewer per such transfer."""

    @pytest.mark.parametrize("serialized", [True, False])
    @pytest.mark.parametrize("latency", [0.0, 2.0])
    def test_matches_generator(self, serialized, latency):
        got, collapsed = _run_transfers("callback", serialized, latency)
        want, _ = _run_transfers("generator", serialized, latency)
        # Only a, at t=0, finds the slot free; b and c queue behind it.
        assert collapsed == (1 if serialized else 0)
        assert got[1] == want[1] - collapsed
        assert got[:1] + got[2:] == want[:1] + want[2:]
        done, _, sent, moved, records = got
        assert sent == 3 and moved == 120
        assert [rec[2] for rec in records] == ["xfer"] * 3
        if serialized:
            # b queues behind a's 10us occupancy on the issue slot.
            assert dict(done)["b"] == pytest.approx(10.5 + latency)
        else:
            assert dict(done)["b"] == pytest.approx(0.5 + latency)

    def test_leg_records_are_recycled(self, env):
        ch = Channel(env, serialized=True, bandwidth=10.0)
        ends = []
        ch.transfer_then(10, lambda: ch.transfer_then(
            10, lambda: ends.append(env.now)))
        env.run()
        assert ends == pytest.approx([2.0])
        assert len(ch._legs) == 1


class TestPush:
    def test_push_lands_after_latency(self, env):
        ch = Channel(env, name="wire", latency=3.0)
        ch.push("pkt")
        assert ch.try_get() is None
        env.run()
        assert env.now == pytest.approx(3.0)
        assert ch.try_get() == "pkt"
        assert ch.delivered == 1

    def test_push_into_full_sink_counts_drop(self, env):
        sink = Channel(env, name="rx", capacity=1)
        wire = Channel(env, name="wire", latency=1.0, sink=sink)
        wire.push("a")
        wire.push("b")
        env.run()
        assert sink.try_get() == "a"
        assert wire.delivered == 1
        assert wire.dropped == 1


class TestPushLandingShadow:
    """``push`` looks its landing handler up on the instance each time,
    so a fault hook installed later sees the next landing."""

    def test_wire_hook_installed_after_first_push(self, env):
        from repro.faults.injector import _WireHook

        sink = Channel(env, name="rx")
        wire = Channel(env, name="wire", latency=1.0, sink=sink)
        wire.push("first")
        env.run()
        hook = _WireHook(SimpleNamespace(rng=None), wire)
        hook.begin_stall(buffer_limit=4)
        wire.push("second")
        env.run()
        assert hook.hold == ["second"]
        assert sink.items == ("first",)
        del wire._land                  # the class fast path again
        wire.push("third")
        env.run()
        assert sink.items == ("first", "third")
        assert wire.sent == 3 and wire.delivered == 2


class TestPushMany:
    def test_burst_lands_in_order_after_latency(self, env):
        sink = Channel(env, name="rx")
        wire = Channel(env, name="wire", latency=3.0, sink=sink)
        wire.push_many(["a", "b", "c"], nbytes=30)
        assert sink.try_get() is None
        env.run()
        assert env.now == pytest.approx(3.0)
        assert sink.recv_batch() == ["a", "b", "c"]
        assert wire.sent == 3 and wire.delivered == 3
        assert wire.bytes_moved == 30
        assert sink.total_put == 3

    def test_burst_wakes_a_parked_getter(self, env):
        sink = Channel(env, name="rx")
        wire = Channel(env, name="wire", latency=1.0, sink=sink)
        got = []

        def consumer(env):
            item = yield sink.get()
            got.append(item)

        env.process(consumer(env))
        wire.push_many(["a", "b", "c"])
        env.run()
        assert got == ["a"]
        assert sink.recv_batch() == ["b", "c"]
        assert wire.delivered == 3

    def test_burst_drop_tail_on_tight_capacity(self, env):
        sink = Channel(env, name="rx", capacity=2)
        wire = Channel(env, name="wire", latency=1.0, sink=sink)
        wire.push_many(["a", "b", "c", "d"])
        env.run()
        assert sink.recv_batch() == ["a", "b"]
        assert wire.delivered == 2
        assert wire.dropped == 2

    def test_interleaves_fifo_with_push(self, env):
        sink = Channel(env, name="rx")
        wire = Channel(env, name="wire", latency=2.0, sink=sink)
        wire.push("a")
        wire.push_many(["b", "c"])
        wire.push("d")
        env.run()
        assert sink.recv_batch() == ["a", "b", "c", "d"]

    def test_empty_burst_is_a_no_op(self, env):
        wire = Channel(env, name="wire", latency=1.0)
        wire.push_many([])
        env.run()
        assert wire.sent == 0
        assert env.now == 0.0

    def test_traced_channel_falls_back_per_item(self, env):
        env.tracer = Tracer(env, enabled=True)
        try:
            sink = Channel(env, name="rx2")
            wire = Channel(env, name="wire2", latency=1.0, sink=sink)
            wire.push_many(["a", "b"])
            env.run()
            events = [rec[2] for rec in env.tracer.filter(channel="wire2")]
            assert events.count("deliver") == 2
            assert sink.recv_batch() == ["a", "b"]
        finally:
            clear_enabled_tracers()


def _one_item(case, burst):
    """Land one item through ``push`` or a one-item ``push_many``;
    return every observable: the event ids, the sink, both channels'
    counters, a parked getter's log, the trace and the fault hook's
    stall buffer."""
    from repro.faults.injector import _WireHook

    env = Environment()
    if case == "traced":
        env.tracer = Tracer(env, enabled=True)
    try:
        sink = Channel(env, name="rx", capacity=1)
        wire = Channel(env, name="wire", latency=2.0, sink=sink)
        got = []
        if case == "getter":
            sink.get_then(lambda item: got.append((item, env.now)))
        elif case == "full":
            sink.try_put("resident")
        if burst:
            wire.push_many(["x"], nbytes=64)
        else:
            wire.push("x", nbytes=64)
        hook = None
        if case == "hook":
            # A stall window opens while the item is in flight.
            hook = _WireHook(SimpleNamespace(rng=None), wire)
            hook.begin_stall(buffer_limit=4)
        env.run()
        return (env._eid, env.events_processed, env.now, sink.items,
                sink.total_put, wire.sent, wire.delivered, wire.dropped,
                wire.bytes_moved, got, hook.hold if hook else None,
                env.tracer.records if case == "traced" else None)
    finally:
        clear_enabled_tracers()


class TestOneItemBurst:
    """A one-item ``push_many`` takes ``push``'s entry and landing, so
    it behaves exactly like ``push``."""

    @pytest.mark.parametrize("case", ["getter", "full", "traced", "hook"])
    def test_matches_push(self, case):
        got = _one_item(case, burst=True)
        assert got == _one_item(case, burst=False)
        eid, events, now, items = got[:4]
        assert (eid, now) == ((2, 2.0) if case == "getter" else (1, 2.0))
        if case == "getter":
            assert got[9] == [("x", 2.0)] and items == ()
        elif case == "full":
            assert items == ("resident",) and got[7] == 1
        else:
            # The item was pushed before the stall window opened, so it
            # lands as pushed, past the hook.
            assert items == ("x",) and got[10] in (None, [])
        if case == "traced":
            assert [rec[2] for rec in got[11]] == ["enq", "deliver"]

    def test_one_item_burst_schedules_no_burst_landing(self, env):
        wire = Channel(env, name="wire", latency=1.0)
        wire.push_many(["x"])
        assert wire._burst_counts == deque()
        assert [entry[3] for entry in env._queue] == [wire._land]


class TestCredits:
    def test_try_claim_respects_capacity(self, env):
        ch = Channel(env, capacity=2)
        assert ch.try_claim()
        assert ch.try_claim()
        assert not ch.try_claim()
        assert ch.claimed == 2

    def test_release_without_claim_raises(self, env):
        ch = Channel(env, capacity=2)
        with pytest.raises(CapacityError):
            ch.release_claim()

    def test_complete_claim_makes_item_visible(self, env):
        ch = Channel(env, capacity=1)
        assert ch.try_claim()
        ch.complete_claim("item")
        assert len(ch) == 1
        assert ch.delivered == 1

    def test_complete_without_claim_raises(self, env):
        ch = Channel(env, capacity=1)
        with pytest.raises(CapacityError):
            ch.complete_claim("item")


class TestTracing:
    def test_channel_emits_uniform_schema(self, env):
        env.tracer = Tracer(env, enabled=True)
        try:
            ch = Channel(env, name="traced", latency=1.0)
            ch.push("x")
            env.run()
            ch.try_get()
            events = [rec[2] for rec in env.tracer.filter(channel="traced")]
            assert "deliver" in events
            assert "deq" in events
            for rec in env.tracer.records:
                assert len(rec) == 5
        finally:
            clear_enabled_tracers()

    def test_disabled_tracer_keeps_store_fast_paths(self, env):
        ch = Channel(env, name="fast")
        assert ch._tracer is None
        assert type(ch).put.__get__(ch) == ch.put

    def test_fast_paths_still_trace(self, env):
        class Msg:
            def __init__(self, msg_id):
                self.msg_id = msg_id

        env.tracer = Tracer(env, enabled=True)
        try:
            rx = Channel(env, name="rx")
            wire = Channel(env, name="wire", latency=1.0, sink=rx)
            pipe = Channel(env, name="pipe", bandwidth=10.0,
                           serialized=True, latency=0.5)
            got = []
            done = []
            rx.get_then(got.append)         # parked: push hands off
            wire.push(Msg(7), nbytes=64)
            pipe.transfer_then(100, lambda: done.append(env.now))
            env.run()
            assert [m.msg_id for m in got] == [7]
            assert done == [pytest.approx(10.5)]
            assert [rec[2:] for rec in env.tracer.filter(channel="wire")] \
                == [("deliver", 7, None)]
            assert [rec[2:] for rec in env.tracer.filter(channel="rx")] \
                == [("enq", 7, None), ("deq", 7, None)]
            assert [(rec[0], rec[2:]) for rec in
                    env.tracer.filter(channel="pipe")] \
                == [(10.0, ("xfer", None, 100))]
        finally:
            clear_enabled_tracers()
