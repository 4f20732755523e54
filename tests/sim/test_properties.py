"""Property-based tests (hypothesis) on the simulation kernel."""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, LatencyRecorder, Resource, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def proc(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(items=st.lists(st.integers(), min_size=1, max_size=50),
       capacity=st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_store_preserves_fifo_under_any_capacity(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    got = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            got.append((yield store.get()))
            yield env.timeout(1)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == items


@given(durations=st.lists(st.floats(min_value=0.1, max_value=100,
                                    allow_nan=False), min_size=1, max_size=30),
       capacity=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity(durations, capacity):
    env = Environment()
    res = Resource(env, capacity)
    active = [0]
    max_active = [0]

    def worker(env, duration):
        with res.request() as req:
            yield req
            active[0] += 1
            max_active[0] = max(max_active[0], active[0])
            yield env.timeout(duration)
            active[0] -= 1

    for duration in durations:
        env.process(worker(env, duration))
    env.run()
    assert max_active[0] <= capacity
    assert active[0] == 0
    assert res.in_use == 0


@given(durations=st.lists(st.floats(min_value=0.1, max_value=50,
                                    allow_nan=False), min_size=2, max_size=20))
@settings(max_examples=40, deadline=None)
def test_unit_resource_serializes_total_time(durations):
    """With capacity 1, total makespan == sum of the durations."""
    env = Environment()
    res = Resource(env, 1)

    def worker(env, duration):
        with res.request() as req:
            yield req
            yield env.timeout(duration)

    for duration in durations:
        env.process(worker(env, duration))
    env.run()
    assert env.now == sum(durations) or abs(env.now - sum(durations)) < 1e-6


@given(values=st.lists(st.floats(min_value=0, max_value=1e9,
                                 allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_percentiles_bounded_and_monotone(values):
    rec = LatencyRecorder()
    for v in values:
        rec.record(v)
    p50, p90, p99 = rec.p50(), rec.p90(), rec.p99()
    assert min(values) <= p50 <= p90 <= p99 <= max(values)


@given(seed=st.integers(min_value=0, max_value=2**31),
       n=st.integers(min_value=1, max_value=20))
@settings(max_examples=30, deadline=None)
def test_simulation_is_deterministic(seed, n):
    """Two identical runs produce identical event traces."""

    def run_once():
        env = Environment()
        trace = []
        store = Store(env, capacity=3)

        def producer(env):
            for i in range(n):
                yield env.timeout((seed % 7) + 0.5)
                yield store.put(i)

        def consumer(env):
            for _ in range(n):
                item = yield store.get()
                trace.append((env.now, item))
                yield env.timeout(1.0)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        return trace

    assert run_once() == run_once()
