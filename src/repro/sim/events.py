"""Core event types for the discrete-event simulation kernel.

The kernel follows the classic coroutine DES structure (SimPy-style):
processes are Python generators that ``yield`` :class:`Event` objects and
are resumed when those events fire.  An event is *triggered* once a value
(or failure) has been assigned and it has been placed on the environment's
schedule; it is *processed* once its callbacks have run.

A schedule entry is ``(time, priority, eid, handler, arg)`` and firing
it is ``handler(arg)``.  Every scheduled :class:`Event` rides the
module-level :func:`_fire` handler, which runs its callbacks; callback
state machines schedule their bound methods directly
(``Environment.defer``, ``Resource.acquire_then``, ``Store.get_then``)
and never touch an event object.

A :class:`Task` is the fire-and-forget twin of :class:`Process` for
data-plane fan-out (``Environment.detached()``): it shares the process's
driver loop and differs only at termination, where nothing waits on it,
so it schedules no termination event.  Nothing in the kernel keeps a
free list: a fixed delay is a plain :class:`Timeout`
(``Environment.timeout()``) in generator code and a bare callback
(``Environment.defer()``) in a callback op, and both take the same
schedule slot.
"""

from heapq import heappush

from ..errors import SimulationError

#: Sentinel for "no value assigned yet".
PENDING = object()

#: Scheduling priorities.  Lower sorts first at equal timestamps.
URGENT = 0
NORMAL = 1


def _fire(event):
    """Schedule handler of every :class:`Event`: run its callbacks once.

    A failed event nobody defused terminates the simulation loudly.
    """
    callbacks = event.callbacks
    event.callbacks = None
    for callback in callbacks:
        callback(event)
    if not event._ok and not event._defused:
        raise event._value


class Event:
    """A one-shot occurrence that processes can wait on.

    Events carry a value (delivered to every waiter) or an exception.
    They may be triggered at most once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False

    @property
    def triggered(self):
        """True once the event has been scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self):
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded (only meaningful once triggered)."""
        return bool(self._ok)

    @property
    def value(self):
        if self._value is PENDING:
            raise SimulationError("value of untriggered event is not available")
        return self._value

    def succeed(self, value=None, priority=NORMAL):
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._value is not PENDING:
            raise SimulationError("event %r has already been triggered" % self)
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env.now, priority, eid, _fire, self))
        return self

    def fail(self, exception, priority=NORMAL):
        """Trigger the event with an exception, thrown into waiters."""
        if self._value is not PENDING:
            raise SimulationError("event %r has already been triggered" % self)
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay=0, priority=priority)
        return self

    def __repr__(self):
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return "<%s %s at %#x>" % (type(self).__name__, state, id(self))


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise SimulationError("negative timeout delay: %r" % delay)
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, delay=delay)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies an arbitrary *cause* (e.g. a failure
    description) available via :attr:`cause`.
    """

    @property
    def cause(self):
        return self.args[0] if self.args else None


class _InterruptEvent(Event):
    """Internal: delivery vehicle for :meth:`Process.interrupt`."""

    __slots__ = ()

    def __init__(self, env, process, cause):
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(process._resume)
        env.schedule(self, delay=0, priority=URGENT)


class Process(Event):
    """A running coroutine.  Also an event that fires when it terminates.

    The process's return value (``return x`` inside the generator) becomes
    the event value; an uncaught exception fails the event.  Spawn via
    ``Environment.process()``, which counts it.
    """

    __slots__ = ("_generator", "_target", "_name")

    def __init__(self, env, generator, name=None):
        if not hasattr(generator, "send"):
            raise SimulationError("process requires a generator, got %r" % (generator,))
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        self._target = None
        self._name = name
        env._kick(self._resume)

    @property
    def name(self):
        # Resolved lazily: formatting a name per spawn is pure overhead
        # on the hot path, and most processes are never printed.
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self):
        return self._value is PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt dead process %r" % self)
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
        _InterruptEvent(self.env, self, cause)

    def _resume(self, event):
        """Advance the generator with the outcome of *event*."""
        env = self.env
        generator = self._generator
        while True:
            if event._ok:
                try:
                    target = generator.send(event._value)
                except StopIteration as exc:
                    self._target = None
                    self._finish(getattr(exc, "value", None))
                    break
                except BaseException as exc:
                    self._target = None
                    self._fail_with(exc)
                    break
            else:
                event._defused = True
                try:
                    target = generator.throw(type(event._value)(*event._value.args))
                except StopIteration as exc:
                    self._target = None
                    self._finish(getattr(exc, "value", None))
                    break
                except BaseException as exc:
                    self._target = None
                    self._fail_with(exc)
                    break

            if not isinstance(target, Event):
                exc = SimulationError(
                    "process %r yielded a non-event: %r" % (self.name, target))
                event = Event(env)
                event._ok = False
                event._value = exc
                event._defused = False
                continue
            if target.callbacks is not None:
                # Not yet processed: wait for it.
                target.callbacks.append(self._resume)
                self._target = target
                break
            # Already processed: feed its outcome straight back in.
            event = target

    def _finish(self, value):
        """The generator returned *value*: fire the termination event."""
        self.succeed(value)

    def _fail_with(self, exc):
        self._ok = False
        self._value = exc
        self.env.schedule(self, delay=0)


class Task(Process):
    """A fire-and-forget :class:`Process` for data-plane fan-out.

    Spawn via ``Environment.detached()``, which hands back nothing: a
    task cannot be yielded on or interrupted.  It runs the process's
    driver loop and differs only at termination: a finished task
    schedules no termination event, since nobody waits on it.  An
    uncaught exception still fails the task on the schedule, and with
    no waiter to defuse it the run loop raises it, exactly like a
    failed process nobody waits on.  Use ``env.process()`` whenever the
    completion or result matters.
    """

    __slots__ = ()

    def _finish(self, value):
        self._ok = True
        self._value = value


class Condition(Event):
    """Waits for a combination of events (all-of / any-of).

    The processed-child count is maintained incrementally (each child
    callback bumps ``_done`` once) instead of rescanning every child on
    every callback, so an N-event condition costs O(N), not O(N^2).
    """

    __slots__ = ("_events", "_evaluate", "_done")

    def __init__(self, env, evaluate, events):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        for evt in self._events:
            if not isinstance(evt, Event):
                raise SimulationError("condition over non-event %r" % (evt,))
        # Children already processed at construction time are all visible
        # at once (nothing is dispatched during __init__), so they count
        # as a block before the first evaluation — matching a full scan.
        done = 0
        for evt in self._events:
            if evt.callbacks is None:
                done += 1
        self._done = done
        for evt in self._events:
            if evt.callbacks is None:  # already processed
                if self.triggered:
                    continue
                if not evt._ok:
                    evt._defused = True
                    self.fail(evt._value)
                elif self._evaluate(self._events, done):
                    self.succeed(self._collect())
            else:
                evt.callbacks.append(self._check)
        if not self.triggered and self._evaluate(self._events, self._done):
            self.succeed(self._collect())
        elif not self._events and not self.triggered:
            self.succeed({})

    def _check(self, event):
        if self.triggered:
            return
        self._done += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._done):
            self.succeed(self._collect())

    def _collect(self):
        # An event has *occurred* once its callbacks ran (callbacks is
        # None).  Timeout pre-assigns its value at construction, so
        # `triggered` alone would over-count.
        return {evt: evt._value for evt in self._events if evt.processed and evt._ok}


def all_of(env, events):
    """Condition that fires when every event in *events* has fired."""
    return Condition(env, lambda evts, done: done == len(evts), events)


def any_of(env, events):
    """Condition that fires when at least one event in *events* has fired."""
    return Condition(env, lambda evts, done: done > 0 or not evts, events)
