"""Counted resources with FIFO (or priority) waiter queues.

A :class:`Resource` models anything with limited concurrent capacity: a
CPU core pool, a DMA engine, a PCIe direction.  Processes acquire a slot
with ``yield resource.request()`` and must release it afterwards; the
request object doubles as a context manager::

    with resource.request() as req:
        yield req
        yield env.timeout(cost)

Callback state machines use :meth:`Resource.acquire_then` and
:meth:`Resource.release_slot` instead: a claim that finds a slot free
and no waiter parked runs its callback at once, a parked one is granted
in the slot (and eid) a :class:`Request` grant would take, and the
waiter heap serves both kinds in one priority/FIFO order.  A claim that
knows how long it will hold the slot tries :meth:`Resource.try_hold`
first: on a free slot with no waiter parked it takes the slot and
pushes the end-of-hold entry in one frame; otherwise it changes nothing
and the caller falls back to ``acquire_then``.
"""

import heapq
from heapq import heappush
from itertools import count

from ..errors import SimulationError
from .events import Event, NORMAL, PENDING, _fire
from .stats import TimeWeightedGauge


class Request(Event):
    """A pending (or granted) claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "_released")

    def __init__(self, resource, priority=0):
        # Inlined Event.__init__ — requests are data-plane hot.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        self.priority = priority
        self._released = False
        resource._do_request(self)

    def release(self):
        """Return the slot to the resource (idempotent)."""
        if not self._released:
            self._released = True
            self.resource._do_release(self)

    def cancel(self):
        """Withdraw an ungranted request (no-op if already granted)."""
        self.resource._cancel(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.release()
        return False


class Resource:
    """A pool of *capacity* identical slots with a FIFO waiter queue."""

    def __init__(self, env, capacity=1, name=None):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name or "resource"
        self._in_use = 0
        #: heap of ``(priority, order, request, callback)``; exactly one
        #: of *request* / *callback* is None
        self._waiters = []
        self._order = count()
        self.utilization = TimeWeightedGauge(env)
        self.queue_depth = TimeWeightedGauge(env)

    @property
    def in_use(self):
        return self._in_use

    @property
    def waiting(self):
        return len(self._waiters)

    def request(self, priority=0):
        """Create a claim; the returned event fires when a slot is granted."""
        return Request(self, priority)

    def try_hold(self, duration, handler, arg=None):
        """Hold a free slot for *duration*, then run ``handler(arg)``.

        The one-frame claim: when a slot is free and no waiter is
        parked, take it, move the utilization gauge and push *handler*
        at ``now + duration``: the entry (and eid) the charge after an
        inline :meth:`acquire_then` grant would take.  *handler* runs
        holding the slot and returns it with :meth:`release_slot`.
        Returns False, having changed nothing, when the claim would
        park; the caller then claims through :meth:`acquire_then`.
        """
        if self._in_use >= self.capacity or self._waiters:
            return False
        env = self.env
        now = env.now
        self._take(now)
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (now + duration, NORMAL, eid, handler, arg))
        return True

    def acquire_then(self, callback, priority=0):
        """Callback twin of :meth:`request`: ``callback(None)`` runs
        holding a slot, which the owner returns with :meth:`release_slot`.

        A claim that finds a slot free and no waiter parked takes it and
        runs *callback* before returning: the grant entry a
        :class:`Request` would schedule only relays to the callback, so
        none is scheduled (DESIGN.md §4.6 relay-collapse rule).  Any
        other claim queues behind the waiters by the same (priority,
        FIFO) order and is granted in the schedule slot a
        :class:`Request` would fire in, without an event object.  A
        claim that knows its hold time before it is granted uses
        :meth:`try_hold` instead.
        """
        if self._in_use >= self.capacity or self._waiters:
            self._park(priority, None, callback)
            return
        self._take(self.env.now)
        callback(None)

    def release_slot(self):
        """Return a slot taken through :meth:`acquire_then` (or a granted
        :class:`Request`'s)."""
        in_use = self._in_use - 1
        if in_use < 0:
            raise SimulationError("release_slot on idle resource %s"
                                  % self.name)
        self._in_use = in_use
        if self._waiters:
            self._regrant()
            return
        # No waiter to grant, and the queue-depth gauge already reads 0:
        # only the utilization gauge moves.
        gauge = self.utilization
        value = in_use / self.capacity
        if value != gauge._value:
            now = self.env.now
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value

    # Gauge updates below are inlined (see TimeWeightedGauge.set): the
    # request/grant/release cycle runs millions of times per saturation
    # run and the method-call overhead alone was measurable.

    def _do_request(self, req):
        if self._in_use < self.capacity and not self._waiters:
            # Inlined req.succeed(req): a Request is only ever triggered
            # here (or failed by cancel), so the double-trigger guard is
            # redundant on this, the hottest resource path.
            req._ok = True
            req._value = req
            env = self.env
            now = env.now
            self._take(now)
            eid = env._eid
            env._eid = eid + 1
            heappush(env._queue, (now, NORMAL, eid, _fire, req))
        else:
            self._park(req.priority, req, None)

    def _park(self, priority, req, callback):
        heapq.heappush(self._waiters,
                       (priority, next(self._order), req, callback))
        gauge = self.queue_depth
        value = len(self._waiters)
        if value != gauge._value:
            now = self.env.now
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value

    def _take(self, now):
        """Take one slot and move the utilization gauge."""
        in_use = self._in_use + 1
        self._in_use = in_use
        gauge = self.utilization
        value = in_use / self.capacity
        if value != gauge._value:
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value

    def _do_release(self, req):
        if req._value is PENDING:
            # A request still waiting (e.g. after an interrupt) holds no
            # slot; releasing it withdraws it, as cancel() does, so the
            # slot is never granted to it.
            self._cancel(req)
            return
        self.release_slot()

    def _regrant(self):
        """Hand freed slots to the waiters, then settle both gauges."""
        waiters = self._waiters
        env = self.env
        now = env.now
        queue = env._queue
        while waiters and self._in_use < self.capacity:
            _, _, req, callback = heapq.heappop(waiters)
            if req is None:
                handler, arg = callback, None
            elif req._value is PENDING:
                req._ok = True
                req._value = req
                handler, arg = _fire, req
            else:
                continue  # a triggered (cancelled) request is skipped
            self._take(now)
            eid = env._eid
            env._eid = eid + 1
            heappush(queue, (now, NORMAL, eid, handler, arg))
        gauge = self.queue_depth
        value = len(waiters)
        if value != gauge._value:
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value
        gauge = self.utilization
        value = self._in_use / self.capacity
        if value != gauge._value:
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value

    def _cancel(self, req):
        if req.triggered:  # granted requests are always triggered
            return
        # Eager removal: rebuild the waiter heap without this request.
        self._waiters = [w for w in self._waiters if w[2] is not req]
        heapq.heapify(self._waiters)
        self.queue_depth.set(len(self._waiters))

    def execute(self, duration, priority=0):
        """Convenience process: hold one slot for *duration* microseconds.

        Usage: ``yield from resource.execute(cost)`` inside a process.
        """
        req = Request(self, priority)
        try:
            yield req
            yield self.env.timeout(duration)
        finally:
            req.release()

    def __repr__(self):
        return "<Resource %s %d/%d used, %d waiting>" % (
            self.name, self.in_use, self.capacity, self.waiting)
