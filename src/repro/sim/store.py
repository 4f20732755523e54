"""Producer/consumer channels.

:class:`Store` is an (optionally bounded) FIFO of arbitrary items with
event-returning ``put``/``get``, the building block for NIC queues,
dispatch queues and mailbox-style notification between model
components.

Callback state machines consume with :meth:`Store.get_then`, which
schedules ``callback(item)`` in the slot a :class:`StoreGet` would fire
in, and produce with :meth:`Store.try_put`, which schedules nothing of
its own: an accepted item either wakes a parked getter or is queued.
"""

from collections import deque
from heapq import heappush

from ..errors import SimulationError
from .events import Event, NORMAL, PENDING, _fire


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store, item):
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store):
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        store._do_get(self)


class Store:
    """Unbounded-or-bounded FIFO channel of items."""

    def __init__(self, env, capacity=float("inf"), name=None):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name or "store"
        self._items = deque()
        #: parked consumers, FIFO: StoreGet events and get_then callbacks
        self._getters = deque()
        self._putters = deque()
        self.total_put = 0

    def __len__(self):
        return len(self._items)

    @property
    def depth(self):
        """Current number of queued items."""
        return len(self._items)

    @property
    def items(self):
        """Read-only snapshot of queued items (for tests/inspection)."""
        return tuple(self._items)

    def put(self, item):
        """Enqueue *item*; the event fires once it is accepted."""
        return StorePut(self, item)

    def get(self):
        """Dequeue one item; the event fires with the item as value."""
        return StoreGet(self)

    def get_then(self, callback):
        """Callback twin of :meth:`get`: ``callback(item)`` runs with the
        next item, in the schedule slot the :class:`StoreGet` would fire
        in, without an event object."""
        if self._items:
            item = self._items.popleft()
            env = self.env
            eid = env._eid
            env._eid = eid + 1
            heappush(env._queue, (env.now, NORMAL, eid, callback, item))
            self._wake_putter()
        else:
            self._getters.append(callback)

    def try_put(self, item):
        """Non-blocking put: True if accepted, False if the store is full.

        Used for drop-tail queues (NIC RX rings): the caller counts the
        drop instead of blocking.  Nothing ever waits on an accepted
        non-blocking put, so no completion is scheduled for it: the item
        wakes a parked getter or joins the queue, and the put itself
        consumes no eid.
        """
        getters = self._getters
        if getters:
            # Hand *item* to the oldest parked getter (event or callback).
            getter = getters.popleft()
            self.total_put += 1
            env = self.env
            eid = env._eid
            env._eid = eid + 1
            if type(getter) is StoreGet:
                getter._ok = True
                getter._value = item
                heappush(env._queue, (env.now, NORMAL, eid, _fire, getter))
            else:
                heappush(env._queue, (env.now, NORMAL, eid, getter, item))
            return True
        if len(self._items) < self.capacity:
            self._items.append(item)
            self.total_put += 1
            return True
        return False

    def try_get(self):
        """Non-blocking pop: return an item or None."""
        if self._items:
            item = self._items.popleft()
            self._wake_putter()
            return item
        return None

    def purge_waiters(self):
        """Withdraw every parked get and put (they never fire).

        Fault-recovery hook: when a consumer dies mid-wait (accelerator
        crash), its parked ``StoreGet`` would otherwise silently swallow
        the next item put after the restart, and a parked ``StorePut``
        would inject a dead producer's item into the ring.  Returns
        ``(getters, putters)`` counts; consumes no schedule slots.
        """
        getters, putters = len(self._getters), len(self._putters)
        self._getters.clear()
        self._putters.clear()
        return getters, putters

    # -- internals ----------------------------------------------------------

    # The succeed() calls below are inlined: put/get events are created
    # untriggered and only triggered once, right here, so the
    # double-trigger guard would be dead weight on the data plane.

    def _do_put(self, event):
        # The class's try_put, not a traced instance's shadow: the
        # traced put already emitted its record.
        if not Store.try_put(self, event.item):
            self._putters.append(event)
            return
        event._ok = True
        event._value = None
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env.now, NORMAL, eid, _fire, event))

    def _do_get(self, event):
        if self._items:
            event._ok = True
            event._value = self._items.popleft()
            env = self.env
            eid = env._eid
            env._eid = eid + 1
            heappush(env._queue, (env.now, NORMAL, eid, _fire, event))
            self._wake_putter()
        else:
            self._getters.append(event)

    def _wake_putter(self):
        if self._putters and len(self._items) < self.capacity:
            put = self._putters.popleft()
            self._items.append(put.item)
            self.total_put += 1
            put._ok = True
            put._value = None
            env = self.env
            eid = env._eid
            env._eid = eid + 1
            heappush(env._queue, (env.now, NORMAL, eid, _fire, put))

    def __repr__(self):
        return "<%s %s depth=%d>" % (type(self).__name__, self.name, len(self._items))

