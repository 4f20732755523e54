"""Parallel sweep executor: fan independent simulation points across
worker processes with bit-identical results (DESIGN.md §4.8).

Every Lynx figure is a grid of *independent* simulations — each point
owns its own :class:`~repro.experiments.testbed.Testbed`, RNG registry,
and event kernel.  Experiments declare their grids as lists of
self-describing :class:`Point` specs and hand them to
:func:`run_points`, which runs them either serially (the default) or
fanned across a ``multiprocessing`` pool, reassembling results in
declaration order.  Because each point is a closed simulation seeded
only by its own derived seed, serial and parallel executions produce
**bit-identical** values for a fixed root seed.

The worker count comes from, in priority order: the ``jobs=`` argument,
:func:`configure` (installed by the CLI's ``--jobs`` or the benchmark
suite's ``--jobs`` pytest option), and the ``REPRO_JOBS`` environment
variable.  The default is 1, so existing callers are untouched.
:func:`run_points` additionally clamps the request to
:func:`usable_cores` — forking four workers on a one-core runner is a
pure pessimization (observed 0.87x "speedup"), so a clamp to 1 runs
inline and never forks a pool.  Clamping changes only wall-clock,
never values: results are bit-identical at any worker count.

Telemetry (DESIGN.md §4.9): every point — inline or in a worker — runs
inside its own registry scope; when it finishes, its full snapshot is
merged into the parent registry **in declaration order**.  Serial and
parallel runs therefore perform the *same* merge arithmetic in the same
order, so merged metrics (``--metrics``) are identical across ``--jobs N`` — wall-clock seconds excepted, as those
measure the host, not the model.

Worker-side state handling:

* each worker scrubs the tracer registry and the inherited telemetry
  scopes before running a point, so nothing inherited from the parent
  (under the ``fork`` start method) leaks into snapshots;
* each point result travels back with the point's registry snapshot,
  which the parent merges — there is no kernel-totals special case;
  ``sim.kernel.*`` rides along with every other instrument.

Tracing (``--trace-channel``) records live in worker memory and are not
shipped back; the CLI forces serial execution when tracing is enabled.

Memory (DESIGN.md §4.8): every point — inline or in a worker — runs
inside one collector boundary, which frees the point's finished testbed
with one young-generation collection when the point ends.  A point that
builds one testbed per trial (an SLO bisection) runs each trial through
:func:`run_trial`, which frees the trial's testbed when the trial
returns.
"""

import gc
import hashlib
import os
from functools import partial

from ..errors import ConfigError
from .. import telemetry
from ..sim import trace as trace_mod

#: seeds stay below 2**31 so every consumer (numpy generators, the
#: RngRegistry's stream derivation, struct-packed seeds) accepts them
SEED_SPACE = 2 ** 31

#: worker count installed by :func:`configure`; ``None`` defers to the
#: ``REPRO_JOBS`` environment variable, then the serial default.
_active_jobs = None

#: True while a point's collector boundary is open in this process
_in_boundary = False

#: True once a trial's collection inside the open boundary has promoted
#: the point's live objects out of generation 0
_trial_collected = False


def configure(jobs):
    """Install the process-wide worker count (``None`` resets)."""
    global _active_jobs
    if jobs is not None and jobs < 1:
        raise ConfigError("jobs must be >= 1, got %r" % (jobs,))
    _active_jobs = jobs


def active_jobs():
    """The effective worker count for sweeps run without ``jobs=``."""
    if _active_jobs is not None:
        return _active_jobs
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError("REPRO_JOBS must be an integer >= 1, got %r"
                          % (raw,))
    return jobs


def usable_cores():
    """CPU cores actually available to this process.

    Prefers the scheduler affinity mask (cgroup/taskset-aware — CI
    runners often expose fewer cores than ``os.cpu_count`` reports) and
    falls back to the raw core count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def derive_seed(root_seed, key):
    """Deterministic per-point seed from the root seed and point key.

    Hash-based (not ``hash()``, which is salted per process) so the
    same (root seed, key) pair maps to the same seed in every process,
    python version, and platform — the property the bit-identical
    serial-vs-parallel guarantee rests on.  Keys are canonicalized via
    ``repr``, so use tuples of strings/numbers.
    """
    text = "%r|%r" % (root_seed, key)
    digest = hashlib.blake2s(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % SEED_SPACE


class Point:
    """One independent simulation in an experiment grid.

    A picklable spec: *builder* is a module-level callable, *kwargs*
    its keyword arguments, and ``seed`` the per-point seed derived from
    the experiment's root seed and the point *key*.  The executor
    invokes ``builder(seed=point.seed, **kwargs)`` — builders must
    accept a ``seed`` keyword.
    """

    __slots__ = ("key", "builder", "kwargs", "seed")

    def __init__(self, key, builder, kwargs=None, root_seed=42):
        self.key = key
        self.builder = builder
        self.kwargs = dict(kwargs or {})
        if "seed" in self.kwargs:
            raise ConfigError("pass the root seed via root_seed=, not "
                              "kwargs['seed'] — the executor injects the "
                              "derived per-point seed")
        self.seed = derive_seed(root_seed, key)

    def __call__(self):
        return self.builder(seed=self.seed, **self.kwargs)

    def __repr__(self):
        return "Point(%r, %s, seed=%d)" % (
            self.key, getattr(self.builder, "__name__", self.builder),
            self.seed)


def run_points(points, jobs=None):
    """Run every point; returns their values in declaration order.

    ``jobs=None`` uses :func:`active_jobs`.  The request is clamped to
    :func:`usable_cores` — extra workers beyond the hardware only add
    fork/pickle overhead.  With one (possibly clamped) job or one
    point the points run inline in this process and no pool is forked;
    otherwise they fan out over a worker pool and the results are
    reassembled in order, so callers cannot observe the difference
    beyond wall-clock.
    """
    points = list(points)
    if jobs is None:
        jobs = active_jobs()
    if jobs < 1:
        raise ConfigError("jobs must be >= 1, got %r" % (jobs,))
    if jobs > 1:
        jobs = min(jobs, usable_cores())
    if jobs == 1 or len(points) <= 1:
        return [_run_point_scoped(point) for point in points]
    return _run_pool(points, min(jobs, len(points)))


def _run_point_scoped(point):
    """Run one point in its own telemetry scope; merge into the parent.

    The inline twin of :func:`_run_point_task`: identical scope
    boundaries and merge arithmetic keep serial and parallel metric
    snapshots bit-identical (DESIGN.md §4.9).
    """
    value, snapshot = _run_in_boundary(point)
    telemetry.registry().merge(snapshot)
    return value


def _run_point(point):
    """(value, registry snapshot) of *point*, run in a fresh scope."""
    with telemetry.scope() as reg:
        return point(), reg.snapshot()


def _run_in_boundary(point):
    """:func:`_run_point` inside the point's collector boundary.

    The cyclic collector stays paused from the point's start, testbed
    construction included, so the whole testbed is still in generation
    0 when :func:`_run_point` returns.  By then its frame is gone, and
    with it the telemetry scope whose pull instruments pin the testbed,
    so one young-generation collection frees the testbed.  After a
    :func:`run_trial` collection the point's older objects sit in
    generation 1, so the closing collection sweeps that too.  The
    caller's collector state is restored.  A nested boundary only runs
    the point.
    """
    global _in_boundary, _trial_collected
    if _in_boundary:
        return _run_point(point)
    was_enabled = gc.isenabled()
    gc.disable()
    _in_boundary = True
    try:
        return _run_point(point)
    finally:
        _in_boundary = False
        gc.collect(1 if _trial_collected else 0)
        _trial_collected = False
        if was_enabled:
            gc.enable()


def run_trial(fn, *args):
    """``fn(*args)`` as one trial of the enclosing point.

    For points that run one fresh simulation per trial (an SLO
    bisection's probes, DESIGN.md §4.13): the point's boundary in
    miniature.  The trial runs in its own telemetry scope and frame,
    and its snapshot is merged into the enclosing scope, so the point's
    snapshot is the merge of its trials rather than the last trial's
    instruments.  Inside a point's collector boundary one
    young-generation collection then frees the trial's dead testbed;
    outside one, the collector is left alone.
    """
    global _trial_collected
    value, snapshot = _run_point(partial(fn, *args))
    telemetry.registry().merge(snapshot)
    if _in_boundary:
        gc.collect(0)
        _trial_collected = True
    return value


def _run_pool(points, jobs):
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context("spawn")
    pool = ctx.Pool(processes=jobs, initializer=_reset_worker_state)
    try:
        # map() preserves input order, which is what makes parallel
        # output indistinguishable from serial output.  Chunked
        # scheduling amortizes the per-task pickling/IPC round-trip;
        # four chunks per worker keeps the tail balanced when point
        # costs vary across the grid.
        chunksize = max(1, len(points) // (jobs * 4))
        outs = pool.map(_run_point_task, points, chunksize)
    finally:
        pool.close()
        pool.join()
    values = []
    parent = telemetry.registry()
    for value, snapshot in outs:
        # Same order, same arithmetic as the serial path above.
        parent.merge(snapshot)
        values.append(value)
    return values


def _reset_worker_state():
    """Pool initializer: scrub the tracer registry and inherited
    telemetry state.

    Dropping the inherited scopes and root instruments matters under
    ``fork``: the parent's registry holds pull instruments closed over
    *its* live testbeds, which must not leak into worker snapshots.
    """
    trace_mod.clear_enabled_tracers()
    telemetry.reset_scopes()


def _run_point_task(point):
    """Worker-side task: run one point, ship (value, registry snapshot)."""
    trace_mod.clear_enabled_tracers()
    return _run_in_boundary(point)
