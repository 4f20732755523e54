"""The sweep executor: seed derivation, worker hygiene, and the
serial-vs-parallel bit-identity guarantee (DESIGN.md §4.8)."""

import gc
import os
import pickle
import weakref

import pytest

from repro import telemetry
from repro.errors import ConfigError
from repro.experiments import (
    e04_fig6_throughput_grid as e04,
    e09_fig8a_lenet as e09,
    sweep,
)
from repro.experiments.testbed import Testbed
from repro.sim import Environment
from repro.sim import trace as trace_mod

# --------------------------------------------------------------------------
# module-level builders (Points must be picklable)
# --------------------------------------------------------------------------


def double_seed(seed, factor=2):
    return seed * factor


def seed_and_kwargs(seed, tag=None):
    return seed, tag


def spin_simulation(seed, events=50):
    """A tiny real simulation, so workers generate kernel totals."""
    env = Environment()

    def ticker(env):
        for _ in range(events):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    return seed, env.now


def kernel_counter(key):
    """``sim.kernel.<key>`` in the current registry scope (0 if absent)."""
    snap = telemetry.snapshot("sim.kernel").get("sim.kernel." + key)
    return 0 if snap is None else snap["value"]


#: weak references to the testbed environments ``pinned_testbed`` built
ENV_REFS = []


def pinned_testbed(seed):
    """A real testbed left behind as cyclic garbage (its tracer and
    environment refer to each other), pinned until the point's
    telemetry scope closes by a pull instrument, as testbeds are."""
    tb = Testbed(seed=seed)
    tb.env.run(until=5.0)
    telemetry.registry().pull("test.now", lambda: tb.env.now)
    ENV_REFS.append(weakref.ref(tb.env))
    return seed


def nested_sweep(seed):
    """Runs an inner point through ``run_points``; True when the inner
    testbed is still alive afterwards, i.e. the nested boundary did not
    collect."""
    sweep.run_points([sweep.Point("inner", pinned_testbed,
                                  root_seed=seed)], jobs=1)
    return ENV_REFS[-1]() is not None


def trial_sweep(seed, trials=3):
    """Runs *trials* testbeds through ``run_trial``; whether each one's
    environment was dead right after its probe returned."""
    dead = []
    for i in range(trials):
        sweep.run_trial(pinned_testbed, seed + i)
        dead.append(ENV_REFS[-1]() is None)
    return dead


def outer_then_trial(seed):
    """An outer testbed built before the first trial and pinned by the
    point's scope; True when it survived the trial's collection."""
    pinned_testbed(seed)
    outer = ENV_REFS[-1]
    sweep.run_trial(pinned_testbed, seed + 1)
    return outer() is not None


class TestDeriveSeed:
    def test_deterministic(self):
        assert (sweep.derive_seed(42, ("E04", 20.0, 1))
                == sweep.derive_seed(42, ("E04", 20.0, 1)))

    def test_within_seed_space(self):
        for key in ("a", ("b", 1), ("c", 2.5, "udp")):
            assert 0 <= sweep.derive_seed(42, key) < sweep.SEED_SPACE

    def test_distinct_across_keys_and_roots(self):
        seeds = {sweep.derive_seed(root, ("E04", n))
                 for root in (1, 2, 42) for n in range(20)}
        assert len(seeds) == 60

    def test_stable_value(self):
        # Pinned: a changed derivation would silently re-seed every
        # experiment point.  blake2s("42|('E04', 1)") -> this value.
        assert sweep.derive_seed(42, ("E04", 1)) == 1981585253


class TestPoint:
    def test_injects_derived_seed(self):
        point = sweep.Point(("k", 1), double_seed, root_seed=7)
        assert point.seed == sweep.derive_seed(7, ("k", 1))
        assert point() == 2 * point.seed

    def test_kwargs_forwarded(self):
        point = sweep.Point("k", seed_and_kwargs, dict(tag="hello"))
        assert point() == (point.seed, "hello")

    def test_seed_kwarg_rejected(self):
        with pytest.raises(ConfigError):
            sweep.Point("k", double_seed, dict(seed=1))

    def test_pickle_round_trip(self):
        point = sweep.Point(("k", 2), double_seed, dict(factor=3),
                            root_seed=9)
        clone = pickle.loads(pickle.dumps(point))
        assert clone.key == point.key
        assert clone.seed == point.seed
        assert clone.kwargs == point.kwargs
        assert clone() == point()


class TestJobsResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        sweep.configure(None)
        assert sweep.active_jobs() == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        sweep.configure(None)
        assert sweep.active_jobs() == 3

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        sweep.configure(2)
        try:
            assert sweep.active_jobs() == 2
        finally:
            sweep.configure(None)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep.configure(0)
        with pytest.raises(ConfigError):
            sweep.run_points([], jobs=0)

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_env_value_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        sweep.configure(None)
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            sweep.active_jobs()


class TestWorkerHygiene:
    def test_reset_clears_tracers_and_totals(self):
        env = Environment()
        trace_mod.Tracer(env, enabled=True)
        assert trace_mod.enabled_tracers()
        spin_simulation(seed=1)
        assert kernel_counter("events_processed") > 0
        sweep._reset_worker_state()
        assert not trace_mod.enabled_tracers()
        assert kernel_counter("events_processed") == 0

    def test_kernel_counters_merge_across_registries(self):
        """A worker's ``sim.kernel`` snapshot merges as the sweep merges
        it: counters add, ``heap_peak`` takes the max."""
        with telemetry.scope() as registry:
            spin_simulation(seed=2)
            events = kernel_counter("events_processed")
            peak = kernel_counter("heap_peak")
            snapshot = registry.snapshot(prefix="sim.kernel")
            snapshot["sim.kernel.heap_peak"] = dict(
                snapshot["sim.kernel.heap_peak"], value=peak + 7)
            registry.merge(snapshot)
            assert kernel_counter("events_processed") == 2 * events
            assert kernel_counter("heap_peak") == peak + 7


class TestRunPoints:
    def points(self, n=5):
        return [sweep.Point(("spin", i), spin_simulation, dict(events=20 + i))
                for i in range(n)]

    def test_serial_order(self):
        values = sweep.run_points(self.points(), jobs=1)
        assert values == [pt() for pt in self.points()]

    def test_parallel_matches_serial_in_order(self):
        points = self.points()
        assert (sweep.run_points(points, jobs=2)
                == sweep.run_points(points, jobs=1))

    def test_parallel_merges_worker_totals(self):
        with telemetry.scope():
            sweep.run_points(self.points(), jobs=2)
            # 5 points x (20..24 charges each) plus bookkeeping events
            # all ran in workers; the merged counter must reflect them.
            assert kernel_counter("events_processed") >= 5 * 20

    def test_oversized_pool_is_clamped(self):
        points = self.points(2)
        assert (sweep.run_points(points, jobs=16)
                == sweep.run_points(points, jobs=1))


@pytest.fixture
def collector_paused():
    """Automatic collection off, so only the sweep boundary can free a
    finished testbed; the collector state is restored afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    ENV_REFS.clear()
    yield
    ENV_REFS.clear()
    if was_enabled:
        gc.enable()


@pytest.mark.usefixtures("collector_paused")
class TestCollectorBoundary:
    """Each point's testbed is freed when the point ends (DESIGN.md §4.8)."""

    def point(self):
        return sweep.Point("tb", pinned_testbed)

    def test_serial_point_freed_on_return(self):
        sweep.run_points([self.point()], jobs=1)
        assert len(ENV_REFS) == 1
        assert ENV_REFS[0]() is None

    def test_worker_task_freed_on_return(self):
        value, snapshot = sweep._run_point_task(self.point())
        assert "test.now" in snapshot
        assert len(ENV_REFS) == 1
        assert ENV_REFS[0]() is None

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_collector_state_restored(self, enabled):
        if enabled:
            gc.enable()
        sweep.run_points([self.point()], jobs=1)
        sweep._run_point_task(self.point())
        assert gc.isenabled() is enabled

    def test_nested_boundary_does_not_collect(self):
        point = sweep.Point("outer", nested_sweep)
        assert sweep.run_points([point], jobs=1) == [True]
        assert [ref() for ref in ENV_REFS] == [None]


@pytest.mark.usefixtures("collector_paused")
class TestTrialBoundary:
    """Each trial of a point is freed when it returns; its telemetry
    merges into the point's scope (DESIGN.md §4.8, §4.9)."""

    def test_trial_freed_when_probe_returns_serial(self):
        point = sweep.Point("trials", trial_sweep)
        assert sweep.run_points([point], jobs=1) == [[True, True, True]]

    def test_trial_freed_when_probe_returns_in_worker(self):
        value, _ = sweep._run_point_task(sweep.Point("trials", trial_sweep))
        assert value == [True, True, True]

    def test_outer_testbed_still_freed_at_point_end(self):
        # The trial's collection promotes the live outer testbed out of
        # generation 0; the point's closing collection must reach it.
        point = sweep.Point("outer", outer_then_trial)
        assert sweep.run_points([point], jobs=1) == [True]
        assert [ref() for ref in ENV_REFS] == [None, None]

    def test_no_collection_outside_a_boundary(self):
        sweep.run_trial(pinned_testbed, 1)
        assert ENV_REFS[0]() is not None
        gc.collect()
        assert ENV_REFS[0]() is None

    def test_trial_snapshots_merge_into_the_enclosing_scope(self):
        with telemetry.scope() as reg:
            for seed in (1, 2):
                sweep.run_trial(pinned_testbed, seed)
            assert reg.snapshot()["test.now"]["value"] == 10.0


class TestGoldenParallelIdentity:
    """`--jobs N` must be invisible in experiment output."""

    def test_e04_rows_identical_across_jobs(self):
        serial = e04.run(fast=True, seed=42, measure=2000.0,
                         warmup=2000.0, jobs=1).to_dict()
        for jobs in (2, 4):
            parallel = e04.run(fast=True, seed=42, measure=2000.0,
                               warmup=2000.0, jobs=jobs).to_dict()
            assert parallel == serial

    def test_e09_rows_identical_across_jobs(self):
        serial = e09.run(fast=True, seed=42, measure_us=3000.0,
                         jobs=1).to_dict()
        parallel = e09.run(fast=True, seed=42, measure_us=3000.0,
                           jobs=2).to_dict()
        assert parallel == serial

    def test_e04_metric_snapshots_identical_across_jobs(self):
        """The merged telemetry snapshot — every instrument, not just
        the result rows — must be invisible to --jobs (DESIGN.md §4.9).

        Only ``sim.kernel.wall_seconds`` differs: it times the host,
        not the model.
        """
        def metrics(jobs):
            with telemetry.scope() as reg:
                e04.run(fast=True, seed=42, measure=2000.0,
                        warmup=2000.0, jobs=jobs)
                snap = reg.snapshot()
            snap.pop("sim.kernel.wall_seconds", None)
            return snap

        serial = metrics(1)
        assert serial  # a run with no instruments would prove nothing
        assert any(name.startswith("net.client.") for name in serial)
        parallel = metrics(4)
        assert parallel == serial


class TestCliJobsFlag:
    def test_rejects_zero(self, capsys):
        from repro.experiments.__main__ import main
        with pytest.raises(SystemExit):
            main(["--jobs", "0", "E01"])

    def test_env_jobs_do_not_leak_into_other_suites(self):
        # pytest_unconfigure in benchmarks resets; the library default
        # must stay serial regardless of past configure() calls.
        sweep.configure(4)
        sweep.configure(None)
        if not os.environ.get("REPRO_JOBS", "").strip():
            assert sweep.active_jobs() == 1
