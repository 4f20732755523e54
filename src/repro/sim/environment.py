"""The simulation environment: clock, schedule, and fast run loop.

The run loop is the single hottest function in the repository: every
simulated request costs tens of dispatched events, and the saturation
experiments (E04, E09, E11) push tens of millions of events per run.
The loop is therefore written for CPython throughput:

* the heap entry sequence number is a plain int (``self._eid``), not an
  ``itertools.count`` — and hot constructors bump it inline;
* the loop body has no per-event ``try/except``; ``while queue`` replaces
  catching ``IndexError`` per pop;
* pooled events (:class:`~.events.Charge`) are recycled right after
  their callbacks run, so fixed-latency charges allocate nothing in
  steady state;
* lightweight kernel counters (events processed, spawns, heap peak,
  wall-clock) are maintained as plain int bumps and surfaced through
  :meth:`kernel_stats` / :func:`kernel_totals`.

Determinism note: all fast-path primitives consume exactly one sequence
number per scheduled event, just like the plain primitives they replace,
so relative event order — and therefore every simulated result — is
unchanged for a fixed seed.
"""

import gc
import heapq
import os
from heapq import heappush
from time import perf_counter

from ..errors import SimulationError
from .. import telemetry
from .events import (
    Event, Timeout, Charge, Process, Task, NORMAL, URGENT, any_of, all_of,
)
from .trace import NullTracer

#: Max events/tasks kept on a free list (per environment).
_POOL_CAP = 4096

#: Counter keys accumulated across environments (see :func:`kernel_totals`),
#: surfaced through the telemetry registry as ``sim.kernel.<key>``.
_TOTAL_KEYS = (
    "events_processed", "processes_spawned", "tasks_spawned",
    "charges_created", "charges_reused", "requests_completed",
    "wall_seconds",
)

_PREFIX = "sim.kernel."

#: Scheduler backends selectable via :func:`make_environment` /
#: ``--sim-backend`` / ``$REPRO_SIM_BACKEND``.  ``heap`` is the classic
#: binary-heap schedule; ``wheel`` is the calendar-queue backend
#: (:class:`~repro.sim.wheel.WheelEnvironment`) with identical event
#: ordering (see DESIGN.md §4.11).
BACKENDS = ("heap", "wheel")

#: backend installed by :func:`configure_backend` (the CLI hook);
#: ``None`` defers to ``$REPRO_SIM_BACKEND``, then the heap default.
_configured_backend = None


def configure_backend(backend):
    """Install the process-wide scheduler backend (``None`` resets)."""
    global _configured_backend
    if backend is not None and backend not in BACKENDS:
        raise SimulationError("unknown sim backend %r (choose from %s)"
                              % (backend, "/".join(BACKENDS)))
    _configured_backend = backend


def active_backend():
    """The effective backend for environments built without an explicit
    choice: :func:`configure_backend`, then ``$REPRO_SIM_BACKEND``, then
    ``heap``.  An unknown env-var value falls back to ``heap`` rather
    than crashing every import site."""
    if _configured_backend is not None:
        return _configured_backend
    raw = os.environ.get("REPRO_SIM_BACKEND", "").strip().lower()
    if raw in BACKENDS:
        return raw
    return "heap"


def make_environment(initial_time=0.0, backend=None):
    """Build an :class:`Environment` with the selected scheduler backend.

    *backend* overrides the process-wide selection (see
    :func:`active_backend`).  Testbeds construct their kernel through
    this factory, so ``--sim-backend``/``$REPRO_SIM_BACKEND`` reach every
    experiment; direct ``Environment()`` calls keep the heap.
    """
    name = backend if backend is not None else active_backend()
    if name == "heap":
        env = Environment(initial_time)
    elif name == "wheel":
        from .wheel import WheelEnvironment
        env = WheelEnvironment(initial_time)
    else:
        raise SimulationError("unknown sim backend %r (choose from %s)"
                              % (name, "/".join(BACKENDS)))
    env.frame_exec = resolve_frame_exec(name)
    return env


def resolve_frame_exec(backend, configured=None):
    """Effective frame-execution setting for a *backend* environment.

    Precedence mirrors the backend knob: an explicit *configured*
    True/False (``SimConfig.frame_exec``) wins, then ``$REPRO_FRAME_EXEC``
    (``1``/``0``), then the backend default — on for the wheel fast
    path, off for heap golden runs.  Frame execution only coalesces
    scheduler events; fixed-seed simulated results are bit-identical
    either way (DESIGN.md §4.14).
    """
    if configured is not None:
        return bool(configured)
    raw = os.environ.get("REPRO_FRAME_EXEC", "").strip()
    if raw in ("1", "true", "on", "yes"):
        return True
    if raw in ("0", "false", "off", "no"):
        return False
    return backend == "wheel"


def kernel_totals():
    """Kernel counters summed over every environment run in this scope.

    Thin shim over the telemetry registry: per-run counters are flushed
    into ``sim.kernel.*`` instruments at the end of each
    ``Environment.run()``, so a CLI can report simulator throughput
    without holding references to the environments involved.  Keeps the
    historical plain-dict shape (counter keys + ``heap_peak`` +
    computed ``events_per_sec``).
    """
    reg = telemetry.registry()
    totals = {}
    for key in _TOTAL_KEYS:
        inst = reg.get(_PREFIX + key)
        totals[key] = inst.value if inst is not None else 0
    peak = reg.get(_PREFIX + "heap_peak")
    totals["heap_peak"] = peak.value if peak is not None else 0
    wall = totals["wall_seconds"]
    totals["events_per_sec"] = totals["events_processed"] / wall if wall > 0 else 0.0
    reqs = totals["requests_completed"]
    totals["events_per_request"] = (
        totals["events_processed"] / reqs if reqs > 0 else 0.0)
    totals["backend"] = active_backend()
    return totals


def reset_kernel_totals():
    """Zero the ``sim.kernel.*`` instruments in the current scope."""
    telemetry.registry().reset(prefix="sim.kernel")


def merge_kernel_totals(snapshot):
    """Fold a :func:`kernel_totals` dict into the current registry.

    Thin shim kept for callers holding legacy plain-dict snapshots; the
    sweep executor itself now merges full registry snapshots.  Counters
    add; ``heap_peak`` takes the max; ``wall_seconds`` therefore sums
    *worker CPU seconds*, not elapsed time, when merging across
    processes.
    """
    reg = telemetry.registry()
    for key in _TOTAL_KEYS:
        reg.counter(_PREFIX + key).inc(snapshot.get(key, 0))
    reg.peak(_PREFIX + "heap_peak").record(snapshot.get("heap_peak", 0))


class EmptySchedule(Exception):
    """Internal: the event queue ran dry."""


class Environment:
    """Execution environment for a single simulation.

    Holds the simulated clock (``now``, in microseconds) and the pending
    event schedule.  All model objects keep a reference to their
    environment and create events through it.
    """

    POOL_CAP = _POOL_CAP

    #: scheduler backend name (subclasses override; see make_environment)
    backend = "heap"

    #: frame-native execution of the data-plane hot loops (see
    #: repro.sim.batchexec and DESIGN.md §4.14).  Class default keeps
    #: direct ``Environment()`` construction on the scalar oracle;
    #: :func:`make_environment` and testbeds resolve the effective
    #: setting via :func:`resolve_frame_exec`.
    frame_exec = False

    def __init__(self, initial_time=0.0):
        self.now = float(initial_time)
        # The shared trigger sites (Event.succeed, Store completions,
        # Resource grants) heappush ``(time, priority, eid, event)``
        # entries straight onto ``_queue``.  The wheel backend aliases
        # ``_queue`` to its live heap — trigger sites always push at
        # ``now``, which is exactly the live heap's domain — so those
        # hot paths stay byte-identical across backends.
        self._queue = []
        #: vectorized Channel landing table (wheel backend only; see
        #: repro.sim.landing) — ``None`` keeps Channel.push on defer()
        self._landing = None
        self._eid = 0
        self._active_process = None
        self._charge_pool = []
        self._task_pool = []
        self._immediate_event = None
        #: the environment-wide tracer Channels snapshot at construction
        #: (testbeds install a real Tracer here before building hardware)
        self.tracer = NullTracer()
        # Kernel counters (cheap plain-int bumps; see kernel_stats()).
        self.events_processed = 0
        self.processes_spawned = 0
        self.tasks_spawned = 0
        self.charges_created = 0
        self.charges_reused = 0
        #: completed request/response exchanges, bumped once where an
        #: end-user response resolves (client RX, population in-flight
        #: table); feeds ``events_per_request``.
        self.requests_completed = 0
        self.heap_peak = 0
        self.wall_seconds = 0.0
        self._flushed = {key: 0 for key in _TOTAL_KEYS}

    # -- event construction ------------------------------------------------

    def event(self):
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event that fires *delay* microseconds from now.

        Use this whenever the event may be stored, raced in a condition,
        or observed after it fires (e.g. request expiry timers).  For a
        plain "charge N microseconds and move on" stage, prefer
        :meth:`charge`, which recycles the event object.
        """
        return Timeout(self, delay, value)

    def charge(self, delay, value=None):
        """A pooled timeout for immediate, one-shot consumption.

        Semantics are identical to :meth:`timeout` — same priority, same
        sequence-number consumption, so event ordering is unchanged — but
        the event object comes from a free list and is recycled by the
        kernel right after its callbacks run.  The caller must yield it
        immediately and exactly once, and must never store it, re-yield
        it, or place it in a condition.
        """
        if delay < 0:
            raise SimulationError("negative charge delay: %r" % delay)
        pool = self._charge_pool
        if pool:
            event = pool.pop()
            event._value = value
            event.delay = delay
            self.charges_reused += 1
        else:
            event = Charge(self, delay, value)
            self.charges_created += 1
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self.now + delay, NORMAL, eid, event))
        return event

    def defer(self, delay, callback, priority=NORMAL):
        """Invoke *callback(event)* after *delay*, via a pooled event.

        The callback-driven twin of :meth:`charge`, for state machines
        that advance on plain callbacks instead of generator resumption.
        """
        if delay < 0:
            raise SimulationError("negative defer delay: %r" % delay)
        pool = self._charge_pool
        if pool:
            event = pool.pop()
            event._value = None
            event.delay = delay
            self.charges_reused += 1
        else:
            event = Charge(self, delay, None)
            self.charges_created += 1
        event.callbacks.append(callback)
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self.now + delay, priority, eid, event))
        return event

    def defer_at(self, when, callback, priority=NORMAL):
        """Invoke *callback(event)* at absolute simulated time *when*.

        The absolute-time twin of :meth:`defer`, for frame execution
        (:mod:`repro.sim.batchexec`): a coalesced span must complete at
        the exact float timestamp the scalar chain's sequential
        additions produce, and ``defer(when - now)`` cannot guarantee
        that — ``now + (when - now)`` need not round back to ``when``.
        """
        if when < self.now:
            raise SimulationError("defer_at into the past: %r" % when)
        pool = self._charge_pool
        if pool:
            event = pool.pop()
            event._value = None
            event.delay = when - self.now
            self.charges_reused += 1
        else:
            event = Charge(self, when - self.now, None)
            self.charges_created += 1
        event.callbacks.append(callback)
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (when, priority, eid, event))
        return event

    def _kick(self, callback):
        """Schedule *callback* URGENTly at the current time (pooled).

        This is the zero-allocation replacement for the ``Initialize``
        event that used to kick off every process: same timestamp, same
        URGENT priority, one sequence number — identical ordering.
        """
        pool = self._charge_pool
        if pool:
            event = pool.pop()
            event._value = None
            event.delay = 0.0
            self.charges_reused += 1
        else:
            event = Charge(self, 0.0, None)
            self.charges_created += 1
        event.callbacks.append(callback)
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self.now, URGENT, eid, event))
        return event

    def immediate(self, value=None):
        """An already-processed event carrying *value*.

        Yielding it resumes the coroutine synchronously — the kernel
        schedules nothing and the clock does not advance.  The returned
        object is a per-environment singleton: yield it immediately and
        never store it.  (Do not substitute it for ``timeout(0)``, which
        *does* schedule and therefore orders against other events.)
        """
        event = self._immediate_event
        if event is None:
            event = Event(self)
            event.callbacks = None
            event._ok = True
            self._immediate_event = event
        event._value = value
        return event

    def process(self, generator, name=None):
        """Start *generator* as a new :class:`Process`."""
        return Process(self, generator, name=name)

    def detached(self, generator):
        """Run *generator* as a fire-and-forget task (no Process object).

        Use for data-plane fan-out where nobody yields on the result:
        the driver is pooled and no termination event is scheduled.  The
        task cannot be interrupted or waited on; an uncaught exception
        still crashes the simulation.  Ordering matches ``process()``
        exactly (one URGENT kick at the current time).
        """
        pool = self._task_pool
        task = pool.pop() if pool else Task(self)
        self.tasks_spawned += 1
        task._start(generator)

    def any_of(self, events):
        return any_of(self, events)

    def all_of(self, events):
        return all_of(self, events)

    @property
    def active_process(self):
        """The process currently being resumed (or None)."""
        return self._active_process

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event, delay=0.0, priority=NORMAL):
        """Place *event* on the schedule *delay* microseconds from now."""
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self.now + delay, priority, eid, event))

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self):
        """Process the next scheduled event (slow path; run() inlines this)."""
        try:
            when, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule()
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        self.events_processed += 1
        if event._pooled:
            callbacks.clear()
            event.callbacks = callbacks
            if len(self._charge_pool) < _POOL_CAP:
                self._charge_pool.append(event)
        elif not event._ok and not event._defused:
            # An unhandled failure terminates the simulation loudly.
            raise event._value

    def run(self, until=None):
        """Run the simulation.

        *until* may be ``None`` (run until the schedule drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        fires, returning its value).
        """
        stop_event = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
            else:
                horizon = float(until)
                if horizon < self.now:
                    raise SimulationError(
                        "cannot run until %s: already at %s" % (horizon, self.now))
                stop_event = self.event()
                stop_event._ok = True
                stop_event._value = None
                # URGENT so the clock stops before same-time model events run.
                self.schedule(stop_event, delay=horizon - self.now, priority=0)
            stop_event.callbacks.append(_StopSimulation.throw_in)

        queue = self._queue
        pop = heapq.heappop
        qsize = len
        charge_pool = self._charge_pool
        nprocessed = 0
        peak = self.heap_peak
        # Heap occupancy moves slowly relative to the event rate, so the
        # peak is sampled at entry and every 256 events rather than per
        # event — two len() calls per event (queue + pool) measurably
        # slow the loop at tens of millions of events per run.
        qlen = qsize(queue)
        if qlen > peak:
            peak = qlen
        # The hot loop churns through short-lived events, messages and
        # generator frames; generation-0 cycle collections add 5-15%
        # overhead for garbage that refcounting already reclaims.  The
        # few real cycles (process <-> generator frames) are collected
        # once tracking resumes after the run.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        started = perf_counter()
        try:
            while queue:
                when, _, _, event = pop(queue)
                self.now = when
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                nprocessed += 1
                if not nprocessed & 255:
                    qlen = qsize(queue)
                    if qlen > peak:
                        peak = qlen
                if event._pooled:
                    # Recycle: callbacks already ran; hand the (cleared)
                    # list back so the next charge() skips two allocations.
                    # The free list is trimmed to the cap on exit instead
                    # of checked per event.
                    callbacks.clear()
                    event.callbacks = callbacks
                    charge_pool.append(event)
                elif not event._ok and not event._defused:
                    # An unhandled failure terminates the simulation loudly.
                    raise event._value
            if stop_event is not None and not stop_event.triggered:
                raise SimulationError(
                    "run() condition %r never fired; schedule is empty" % stop_event)
            return None
        except _StopSimulation as stop:
            return stop.args[0]
        finally:
            self.wall_seconds += perf_counter() - started
            if gc_was_enabled:
                gc.enable()
            del charge_pool[_POOL_CAP:]
            self.events_processed += nprocessed
            self.heap_peak = peak
            self._flush_totals()

    # -- instrumentation -----------------------------------------------------

    def kernel_stats(self):
        """Kernel throughput counters for this environment.

        ``events_per_sec`` divides events processed inside ``run()`` by
        the wall-clock seconds spent there, so it measures the simulator
        itself, not the model.
        """
        wall = self.wall_seconds
        reqs = self.requests_completed
        return {
            "backend": self.backend,
            "frame_exec": self.frame_exec,
            "events_processed": self.events_processed,
            "processes_spawned": self.processes_spawned,
            "tasks_spawned": self.tasks_spawned,
            "charges_created": self.charges_created,
            "charges_reused": self.charges_reused,
            "requests_completed": reqs,
            "charge_pool_size": len(self._charge_pool),
            "heap_peak": self.heap_peak,
            "wall_seconds": wall,
            "events_per_sec": self.events_processed / wall if wall > 0 else 0.0,
            "events_per_request": self.events_processed / reqs if reqs > 0 else 0.0,
        }

    def _flush_totals(self):
        """Fold this environment's counter deltas into the current
        telemetry registry (``sim.kernel.*``).

        Deltas, not absolutes: ``run()`` may be called many times per
        environment, and an environment may outlive a registry scope —
        each flush credits only what accrued since the previous one to
        whichever scope is active now.
        """
        reg = telemetry.registry()
        flushed = self._flushed
        for key in _TOTAL_KEYS:
            value = getattr(self, key)
            delta = value - flushed[key]
            if delta:
                reg.counter(_PREFIX + key).inc(delta)
                flushed[key] = value
        reg.peak(_PREFIX + "heap_peak").record(self.heap_peak)
        # Derived: events per completed request (the frame-execution
        # figure of merit, DESIGN.md §4.14).  A ratio instrument, not a
        # counter: the operands merge across workers and scopes, the
        # ratio recomputes from them at snapshot time.
        reg.ratio(_PREFIX + "events_per_request",
                  _PREFIX + "events_processed",
                  _PREFIX + "requests_completed")


class _StopSimulation(Exception):
    """Internal control-flow exception ending :meth:`Environment.run`."""

    @classmethod
    def throw_in(cls, event):
        if not event._ok:
            event._defused = True
            raise event._value
        raise cls(event._value)
