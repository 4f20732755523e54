"""The flyweight population traffic plane (DESIGN.md §4.13)."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.net import (
    ClientPopulation,
    InFlightTable,
    OnOffPopulation,
    PayloadPool,
    PoissonPopulation,
    PopulationArrivals,
)
from repro.net import population
from repro.sim import RngRegistry


def _take_all(source, until, step=1000.0):
    """Consume windows up to *until*; returns one concatenated array."""
    parts = []
    t = 0.0
    while t < until:
        parts.append(source.take(t, min(t + step, until)))
        t += step
    return np.concatenate(parts) if parts else np.empty(0)


class TestPoissonPopulation:
    def test_mean_rate_and_ordering(self):
        src = PoissonPopulation(0.5, RngRegistry(1).stream("p"))
        times = _take_all(src, 40000.0)
        assert times.size == pytest.approx(20000, rel=0.05)
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0.0 and times.max() < 40000.0

    def test_windows_partition_cleanly(self):
        # The same seed consumed through different window widths is a
        # different draw sequence, but each window's times stay inside
        # its own [start, until) — no duplicates or leaks at the seams.
        src = PoissonPopulation(0.2, RngRegistry(2).stream("p"))
        a = src.take(0.0, 100.0)
        b = src.take(100.0, 230.0)
        assert (a < 100.0).all() and (a >= 0.0).all()
        assert (b >= 100.0).all() and (b < 230.0).all()

    def test_validates_rate(self):
        with pytest.raises(ConfigError):
            PoissonPopulation(0.0, RngRegistry(0).stream("p"))


class TestOnOffPopulation:
    def test_long_run_rate_matches_formula(self):
        src = OnOffPopulation(1.0, 100.0, 300.0, RngRegistry(3).stream("b"))
        assert src.mean_rate == pytest.approx(0.25)
        times = _take_all(src, 400000.0)
        assert times.size == pytest.approx(100000, rel=0.1)

    def test_burstier_than_poisson(self):
        burst = OnOffPopulation(1.0, 100.0, 300.0,
                                RngRegistry(3).stream("b"))
        pois = PoissonPopulation(burst.mean_rate, RngRegistry(3).stream("p"))
        bgaps = np.diff(_take_all(burst, 100000.0))
        pgaps = np.diff(_take_all(pois, 100000.0))

        def cv2(gaps):
            return gaps.var() / gaps.mean() ** 2

        assert cv2(bgaps) > 5 * cv2(pgaps)

    def test_validates_parameters(self):
        with pytest.raises(ConfigError):
            OnOffPopulation(0.0, 1.0, 1.0, RngRegistry(0).stream("b"))


class TestPayloadPool:
    def test_zipf_prefers_low_ranks(self):
        payloads = [b"k%d" % i for i in range(32)]
        pool = PayloadPool.zipf(payloads, RngRegistry(6).stream("z"))
        idx = pool.sample(20000)
        counts = np.bincount(idx, minlength=32)
        assert counts[0] > 3 * counts[10] > 0
        assert counts.sum() == 20000

    def test_single(self):
        pool = PayloadPool.single(b"x" * 64)
        assert pool.sizes == [64]
        assert (pool.sample(5) == 0).all()

    def test_uniform(self):
        pool = PayloadPool.uniform([b"a", b"bb"], RngRegistry(7).stream("u"))
        idx = pool.sample(4000)
        assert abs(idx.mean() - 0.5) < 0.05

    def test_no_weights_samples_uniformly(self):
        # Regression: a multi-payload pool built without weights used
        # to pass construction and then fail on its first sample().
        pool = PayloadPool([b"a", b"bb", b"ccc"],
                           stream=RngRegistry(7).stream("u"))
        idx = pool.sample(6000)
        counts = np.bincount(idx, minlength=3)
        assert counts.sum() == 6000
        assert all(abs(c - 2000) < 200 for c in counts)
        # "no weights" is exactly equal weights: same stream, same draws
        twin = PayloadPool([b"a", b"bb", b"ccc"],
                           stream=RngRegistry(7).stream("u"),
                           weights=[1.0, 1.0, 1.0])
        assert (twin.sample(6000) == idx).all()

    def test_validation(self):
        with pytest.raises(ConfigError):
            PayloadPool([])
        with pytest.raises(ConfigError):
            PayloadPool([b"a", b"b"])  # multi-payload needs a stream
        with pytest.raises(ConfigError):
            PayloadPool([b"a"], weights=[1.0, 2.0])


class TestInFlightTable:
    def test_resolve_records_latency(self):
        table = InFlightTable()
        table.append_run(10, [100.0], None)
        table.append_run(12, [110.0], None)
        lat, misses = table.resolve([12, 10], [150.0, 160.0])
        assert lat == pytest.approx([40.0, 60.0])
        assert misses == 0
        assert table.in_flight == 0

    def test_unknown_and_duplicate_ids_count_as_misses(self):
        table = InFlightTable()
        table.append_run(5, [0.0], None)
        lat, misses = table.resolve([5, 99], [10.0, 10.0])
        assert lat.size == 1 and misses == 1
        _, misses = table.resolve([5], [11.0])  # already done
        assert misses == 1

    def test_expire_skips_resolved_rows(self):
        table = InFlightTable()
        table.append_run(1, [0.0, 0.0], 50.0)
        table.append_run(3, [0.0], 500.0)
        table.resolve([1], [10.0])
        assert table.expire(100.0) == 1   # row 2 only
        assert table.in_flight == 1       # row 3 still live
        assert table.expire(100.0) == 0   # idempotent

    def test_compaction_grows_past_capacity(self, monkeypatch):
        monkeypatch.setattr(InFlightTable, "CAPACITY", 64)
        table = InFlightTable()
        for i in range(1000):
            table.append_run(i, [float(i)], None)
            if i % 2:
                table.resolve([i], [float(i)])
        assert table.in_flight == 500
        lat, misses = table.resolve([998], [2000.0])
        assert misses == 0 and lat == pytest.approx([1002.0])


class _SmallTable(InFlightTable):
    #: small enough that a few frames force a compaction
    CAPACITY = 16


class _ZipStagedTable(_SmallTable):
    """Reference copy of the staging the table used to do: one ``(id,
    send, deadline)`` tuple per row, built through ``itertools.count``,
    ``zip`` and a generator, materialized through one float64 array."""

    def __init__(self):
        super().__init__()
        self._rows = []

    def append_run(self, first_id, send_times, deadline_offset):
        if deadline_offset is None:
            deadlines = itertools.repeat(math.inf)
        else:
            deadlines = (t + deadline_offset for t in send_times)
        self._rows.extend(zip(itertools.count(first_id), send_times,
                              deadlines))
        self._live += len(send_times)

    def _materialize(self):
        staged = self._rows
        if not staged:
            return
        k = len(staged)
        n = self._n
        if n + k > self._msg.size:
            self._compact(n + k)
            n = self._n
        cols = np.asarray(staged, dtype=np.float64)
        self._msg[n:n + k] = cols[:, 0].astype(np.int64)
        self._send[n:n + k] = cols[:, 1]
        self._deadline[n:n + k] = cols[:, 2]
        self._done[n:n + k] = False
        self._n = n + k
        staged.clear()


_times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_steps = st.lists(st.one_of(
    st.tuples(st.just("frame"), st.lists(_times, min_size=1, max_size=8),
              st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e3)),
              st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("resolve"), st.lists(st.integers(0, 10**6),
                                           max_size=6), _times),
    st.tuples(st.just("kill"), st.lists(st.integers(0, 10**6),
                                        max_size=3)),
    st.tuples(st.just("expire"), _times),
), max_size=40)


class TestStagingProperty:
    """Per-row appends stage exactly what the zip staging did: the same
    columns, ``resolve``, ``kill`` and ``expire`` results, whatever the
    frame sizes, deadlines and interleaving."""

    @given(steps=_steps)
    @settings(max_examples=150, deadline=None)
    def test_matches_zip_staging(self, steps):
        got, want = _SmallTable(), _ZipStagedTable()
        next_id = 1
        for step in steps:
            kind = step[0]
            if kind == "frame":
                _, send_times, offset, gap = step
                for table in (got, want):
                    table.append_run(next_id, list(send_times), offset)
                next_id += len(send_times) + gap
            elif kind == "resolve":
                # Mostly ids sent so far, sometimes ones never sent.
                ids = [i % (next_id + 2) for i in step[1]]
                times = [step[2]] * len(ids)
                (lat_g, miss_g), (lat_w, miss_w) = (
                    got.resolve(ids, times), want.resolve(ids, times))
                assert np.array_equal(lat_g, lat_w) and miss_g == miss_w
            elif kind == "kill":
                ids = [i % (next_id + 2) for i in step[1]]
                assert got.kill(ids) == want.kill(ids)
            else:
                assert got.expire(step[1]) == want.expire(step[1])
            assert got.in_flight == want.in_flight
        got._materialize()
        want._materialize()
        n = want._n
        assert got._n == n
        for column in ("_msg", "_send", "_deadline", "_done"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.size == b.size
            assert np.array_equal(a[:n], b[:n])


def _spin_deployment(seed=42):
    from repro.apps.base import SpinApp
    from repro.experiments.common import LYNX_BLUEFIELD, deploy

    return deploy(LYNX_BLUEFIELD, app=SpinApp(50.0), n_mqueues=4, seed=seed)


def _population_for(dep, rate, timeout=None, seed_tag="pop"):
    tb = dep.tb
    return ClientPopulation(dep.env, tb.network, "10.0.9.1", dep.address,
                            PoissonPopulation(rate, tb.rng.stream(seed_tag)),
                            PayloadPool.single(b"x" * 64), timeout=timeout)


class TestClientPopulation:
    def test_end_to_end_against_lynx(self):
        dep = _spin_deployment()
        pop = _population_for(dep, 0.05, timeout=5000.0)
        dep.tb.warmup_then_measure([pop], 10000.0, 40000.0)
        assert pop.delivered_per_sec() == pytest.approx(50000, rel=0.1)
        summary = pop.latency_summary()
        assert 50.0 < summary["p50"] < 200.0
        assert summary["count"] > 1500
        assert pop.timeouts == 0 and pop.errors == 0

    def test_registry_path(self):
        from repro import telemetry

        telemetry.push_scope()
        try:
            dep = _spin_deployment()
            pop = _population_for(dep, 0.05)
            dep.tb.run(until=dep.env.now + 20000.0)
            pop.flush()
            reg = telemetry.registry()
            hist = reg.get("net.population.10.0.9.1.latency")
            assert hist is pop.latency
            assert hist.count > 0
            snap = reg.snapshot()
            assert "net.population.10.0.9.1.responses" in snap
        finally:
            telemetry.pop_scope()

    def test_unanswered_requests_time_out(self, monkeypatch):
        # Attach a mute endpoint: requests vanish, deadlines fire.
        from repro.experiments.testbed import Testbed
        from repro.net.packet import Address
        from repro.sim import Channel

        tb = Testbed(seed=1)

        class MuteSink:
            rx = Channel(tb.env, name="mute-rx")

        tb.network.attach("10.0.0.9", MuteSink())
        # small chunks: frequent sweeps
        monkeypatch.setattr(population, "CHUNK", 256)
        pop = ClientPopulation(
            tb.env, tb.network, "10.0.9.1", Address("10.0.0.9", 7777),
            PoissonPopulation(0.05, tb.rng.stream("p")),
            PayloadPool.single(b"x"), timeout=1000.0)
        tb.run(until=30000.0)
        pop.flush()
        assert pop.responses.count == 0
        assert pop.timeouts > 1000
        assert pop.table.in_flight < pop.offered

    def test_reset_is_a_warmup_cut(self):
        dep = _spin_deployment()
        pop = _population_for(dep, 0.05)
        dep.tb.run(until=dep.env.now + 10000.0)
        pop.reset()
        assert pop.offered == 0
        dep.tb.run(until=dep.env.now + 10000.0)
        pop.flush()
        assert pop.offered == pytest.approx(500, rel=0.15)
        assert pop.offered_per_sec() == pytest.approx(50000, rel=0.15)

    def test_validates_rate(self):
        # A source without a positive long-run rate cannot size chunks.
        dep = _spin_deployment()
        with pytest.raises(ConfigError):
            ClientPopulation(dep.env, dep.tb.network, "10.0.9.1",
                             dep.address, PopulationArrivals(),
                             PayloadPool.single(b"x"))


class TestGoldenParity:
    """The flyweight population vs an equivalent set of per-Client
    OpenLoopGenerators, same aggregate rate, fixed seeds.

    Documented tolerances: the two planes draw different random
    arrivals, so this is statistical, not bit-level — delivered rate
    within 5%, p50 within 15%, p99 within 35% (the histogram's <=8%
    bucket error plus tail sampling noise at ~3k samples).
    """

    def test_population_matches_scalar_clients(self, monkeypatch):
        from repro.net import OpenLoopGenerator

        rate = 0.05

        dep_s = _spin_deployment(seed=42)
        clients = []
        for i in range(4):
            c = dep_s.tb.client("10.0.9.%d" % (i + 1))
            OpenLoopGenerator(dep_s.env, c, dep_s.address, rate / 4,
                              lambda i: b"x" * 64)
            clients.append(c)
        recs = [r for c in clients for r in (c.responses, c.latency)]
        dep_s.tb.warmup_then_measure(recs, 20000.0, 60000.0)
        scalar_rate = sum(c.responses.per_sec() for c in clients)
        samples = np.concatenate([c.latency.samples for c in clients])

        dep_v = _spin_deployment(seed=42)
        monkeypatch.setattr(ClientPopulation, "coalesce_us", 0.0)
        pop = _population_for(dep_v, rate)
        dep_v.tb.warmup_then_measure([pop], 20000.0, 60000.0)
        summary = pop.latency_summary()

        assert pop.delivered_per_sec() == pytest.approx(scalar_rate,
                                                        rel=0.05)
        assert summary["p50"] == pytest.approx(
            float(np.percentile(samples, 50)), rel=0.15)
        assert summary["p99"] == pytest.approx(
            float(np.percentile(samples, 99)), rel=0.35)


class TestReproducibility:
    def test_same_seed_reproduces(self):
        def run():
            dep = _spin_deployment(seed=7)
            pop = _population_for(dep, 0.05, seed_tag="pop7")
            dep.tb.run(until=dep.env.now + 20000.0)
            pop.flush()
            return (pop.offered, pop.responses.count,
                    json.dumps(pop.latency.snapshot(), sort_keys=True))

        assert run() == run()
