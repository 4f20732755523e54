"""The simulation environment: clock, schedule, and fast run loop.

The run loop is the single hottest function in the repository: every
simulated request costs tens of dispatched events, and the saturation
experiments (E04, E09, E11) push tens of millions of events per run.
The loop is therefore written for CPython throughput:

* a schedule entry is ``(time, priority, eid, handler, arg)`` and
  firing it is ``handler(arg)``: an :class:`~.events.Event` rides the
  :func:`~.events._fire` handler (whose body the loop inlines), while
  callback state machines (:meth:`Environment.defer`,
  :meth:`Environment._kick`, ``Resource.acquire_then``,
  ``Store.get_then``) schedule their bound method itself, with no
  event object at all;
* the heap entry sequence number is a plain int (``self._eid``), not an
  ``itertools.count`` — and hot constructors bump it inline;
* the loop body has no per-event ``try/except``; ``while queue`` replaces
  catching ``IndexError`` per pop;
* the kernel keeps no free lists: a generator's fixed delay is a
  plain :class:`~.events.Timeout`, and a callback op's is a bare
  :meth:`Environment.defer` entry with no event object at all;
* lightweight kernel counters (events processed, spawns, heap peak,
  wall-clock) are maintained as plain int bumps and flushed into the
  telemetry registry's ``sim.kernel.*`` instruments at the end of each
  :meth:`Environment.run` (read them with ``--metrics``).

Determinism note: eids are only ever compared, so each scheduled entry
keeps its relative ``(time, priority, eid)`` order whether it carries an
event or a bare callback.  An entry may be left out when nothing listens
to it (``Store.try_put`` schedules no completion) or when it only
relays to its successor (DESIGN.md §4.6 relay-collapse rule); the
entries that remain keep their relative order, so every simulated
result is unchanged for a fixed seed.
"""

import gc
import heapq
from heapq import heappush
from time import perf_counter

from ..errors import SimulationError
from .. import telemetry
from .events import (
    Event, Timeout, Process, Task, NORMAL, URGENT, _fire, any_of, all_of,
)
from .trace import NullTracer

#: Counter keys accumulated across environments, surfaced through the
#: telemetry registry as ``sim.kernel.<key>``.
_TOTAL_KEYS = (
    "events_processed", "processes_spawned", "tasks_spawned",
    "requests_completed", "wall_seconds",
)

_PREFIX = "sim.kernel."


# The benchmark's run metadata (benchmarks/e2e/child.py) calls these two:
# the binary heap is the only scheduler, per-message ops the only mode.
def active_backend():
    return "heap"


def resolve_frame_exec(_backend):
    return False


class Environment:
    """Execution environment for a single simulation.

    Holds the simulated clock (``now``, in microseconds) and the pending
    event schedule.  All model objects keep a reference to their
    environment and create events through it.
    """

    def __init__(self):
        self.now = 0.0
        # The shared trigger sites (Event.succeed, Store hand-offs,
        # Resource grants) heappush ``(time, priority, eid, handler,
        # arg)`` entries straight onto ``_queue``.
        self._queue = []
        self._eid = 0
        # The one already-succeeded event every _kick hands its callback,
        # so Process._resume reads ``_ok``/``_value`` as usual.
        kicked = Event(self)
        kicked.callbacks = None
        kicked._ok = True
        kicked._value = None
        self._kicked = kicked
        #: the environment-wide tracer Channels snapshot at construction
        #: (testbeds install a real Tracer here before building hardware)
        self.tracer = NullTracer()
        # Kernel counters (cheap plain-int bumps; see _flush_totals()).
        self.events_processed = 0
        self.processes_spawned = 0
        self.tasks_spawned = 0
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

        Generator code spends simulated time with ``yield
        env.timeout(d)``; callback ops use :meth:`defer`, which takes
        the same schedule slot without an event object.
        """
        return Timeout(self, delay, value)

    def defer(self, delay, callback, priority=NORMAL):
        """Invoke ``callback(None)`` after *delay*.

        The callback-driven twin of :meth:`timeout`, for state machines
        that advance on plain callbacks instead of generator resumption:
        the callback itself is the schedule entry's handler, so no event
        object exists, yet it takes the slot (and eid) a timeout would.
        """
        if delay < 0:
            raise SimulationError("negative defer delay: %r" % delay)
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self.now + delay, priority, eid, callback,
                               None))

    def _kick(self, callback):
        """Schedule *callback* URGENTly at the current time.

        The start of every process and task, and of the long-lived
        callback ops (RX loops, pollers): same timestamp, same URGENT
        priority, one sequence number.  The callback receives the shared
        already-succeeded ``_kicked`` event.
        """
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self.now, URGENT, eid, callback, self._kicked))

    def process(self, generator, name=None):
        """Start *generator* as a new :class:`Process`."""
        self.processes_spawned += 1
        return Process(self, generator, name=name)

    def detached(self, generator):
        """Run *generator* as a fire-and-forget :class:`~.events.Task`.

        Use for data-plane fan-out where nobody yields on the result: no
        termination event is scheduled, and nothing is returned to wait
        on or interrupt.  An uncaught exception still crashes the
        simulation.  Ordering matches ``process()`` exactly (one URGENT
        kick at the current time).
        """
        self.tasks_spawned += 1
        Task(self, generator)

    def any_of(self, events):
        return any_of(self, events)

    def all_of(self, events):
        return all_of(self, events)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event, delay=0.0, priority=NORMAL):
        """Place *event* on the schedule *delay* microseconds from now."""
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self.now + delay, priority, eid, _fire, event))

    def run(self, until=None):
        """Run the simulation.

        *until* may be ``None`` (run until the schedule drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        fires, returning its value).  An event that has already fired
        returns its value (or raises its failure) without running the
        schedule.
        """
        stop_event = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    if not until._ok:
                        raise until._value
                    return until._value
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
        fire = _fire
        nprocessed = 0
        peak = self.heap_peak
        # Heap occupancy moves slowly relative to the event rate, so the
        # peak is sampled at entry and every 256 events rather than per
        # event — a len() call per event measurably slows the loop at
        # tens of millions of events per run.
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
                when, _, _, handler, arg = pop(queue)
                self.now = when
                if handler is fire:
                    # _fire's body, inlined: an Event is still most of
                    # what generator code schedules, and the extra call
                    # per event costs ~25% of pure timeout churn.
                    callbacks = arg.callbacks
                    arg.callbacks = None
                    for callback in callbacks:
                        callback(arg)
                    if not arg._ok and not arg._defused:
                        # An unhandled failure terminates the simulation.
                        raise arg._value
                else:
                    # A callback op's step is the handler itself.
                    handler(arg)
                nprocessed += 1
                if not nprocessed & 255:
                    qlen = qsize(queue)
                    if qlen > peak:
                        peak = qlen
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
            self.events_processed += nprocessed
            self.heap_peak = peak
            self._flush_totals()

    # -- instrumentation -----------------------------------------------------

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
        # Derived: events per completed request.  A ratio instrument, not a
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
