"""The unified data-movement hop (DESIGN.md §4.7).

Every message-moving path in the model — wire links, the RDMA engine
pipe, PCIe link directions, mqueue rings, doorbell mailboxes, the
GPU-centric work rings — is an instance of one :class:`Channel`
primitive: a bounded FIFO with an optional cost model (serialized issue
slot, bandwidth occupancy, fixed latency), producer credit claims
for in-flight transfers, batch dequeue, and uniform trace emission.

Performance contract: a Channel with tracing disabled inherits the
:class:`~.store.Store` fast paths untouched — ``put``/``get``/
``try_put``/``try_get`` are the exact same bound methods, so the data
plane pays nothing for the abstraction.  When the environment's tracer
is enabled at construction time, those four methods and ``get_then``
are shadowed by traced variants **on the instance**, which keeps the
tracing branch out of the default path entirely.  Trace emission never
schedules events, so enabling tracing cannot perturb simulated results.

Determinism contract: every cost helper takes the steps of the
open-coded sequences it replaced (issue request → charge occupancy →
release → charge latency) at the same times and in the same order.
The one entry it drops is the grant of an idle issue slot, which only
relayed to the occupancy charge (DESIGN.md §4.6 relay-collapse rule),
so refactoring a component onto a Channel leaves fixed-seed results
unchanged.
"""

from collections import deque
from heapq import heappush

from ..errors import CapacityError, SimulationError
from .events import NORMAL
from .resources import Resource
from .store import Store


def _msg_id(item):
    """Best-effort message id of a queued item (for the trace schema)."""
    mid = getattr(item, "msg_id", None)
    if mid is not None:
        return mid
    msg = getattr(item, "request_msg", None)
    if msg is not None:
        return msg.msg_id
    return None


class _TransferLeg:
    """One :meth:`Channel.transfer_then` hop, pooled on its channel.

    Each step pushes the next one's schedule entry itself: the slot (and
    eid) ``Environment.defer`` would take, one frame fewer.  An idle
    issue slot is held through ``Resource.try_hold``, which pushes
    :meth:`_occupied` itself; a busy one runs :meth:`_granted` from its
    ``acquire_then`` grant.
    """

    __slots__ = ("channel", "nbytes", "occupancy", "latency", "callback",
                 "granted", "occupied", "landed")

    def __init__(self, channel):
        self.channel = channel
        self.nbytes = 0
        self.occupancy = 0.0
        self.latency = 0.0
        self.callback = None
        # Bound once: a pooled leg hands the same three to every hop.
        self.granted = self._granted
        self.occupied = self._occupied
        self.landed = self._landed

    def _granted(self, _arg):
        env = self.channel.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env.now + self.occupancy, NORMAL, eid,
                              self.occupied, None))

    def _occupied(self, _arg):
        channel = self.channel
        if channel.issue is not None:
            channel.issue.release_slot()
        channel.sent += 1
        channel.bytes_moved += self.nbytes
        if channel._tracer is not None:
            channel._tracer.emit(channel.name, "xfer", None, self.nbytes)
        latency = self.latency
        if latency:
            env = channel.env
            eid = env._eid
            env._eid = eid + 1
            heappush(env._queue, (env.now + latency, NORMAL, eid,
                                  self.landed, None))
        else:
            self._landed(None)

    def _landed(self, _arg):
        callback = self.callback
        self.callback = None
        self.channel._legs.append(self)
        callback()


class Channel(Store):
    """One typed hop between two components.

    Parameters
    ----------
    capacity:
        Bounded FIFO depth (ring entries); default unbounded.
    latency:
        Fixed traversal latency of the hop, charged by :meth:`push`
        (fire-and-forget) or after the occupancy leg in :meth:`transfer`.
    bandwidth:
        Bytes/us used to derive per-transfer occupancy; ``None`` means
        occupancy is just ``min_occupancy``.
    min_occupancy:
        Floor on the occupancy of one transfer (e.g. an engine's issue
        gap, an AFU's admission interval).
    serialized:
        When True the channel owns an ``issue`` :class:`Resource` of
        capacity one: transfers hold it for their occupancy, modelling
        a serializing pipe (NIC TX serializer, RDMA engine, PCIe
        direction).
    sink:
        Where :meth:`push` lands items after ``latency`` (any Store-like
        with ``try_put``); defaults to this channel's own buffer.
    """

    def __init__(self, env, name=None, capacity=float("inf"), latency=0.0,
                 bandwidth=None, min_occupancy=0.0, serialized=False,
                 sink=None):
        Store.__init__(self, env, capacity, name or "chan")
        if latency < 0:
            raise SimulationError("negative latency on %s" % self.name)
        self.latency = latency
        self.bandwidth = bandwidth
        self.min_occupancy = min_occupancy
        self.issue = (Resource(env, 1, name="%s-issue" % self.name)
                      if serialized else None)
        self._sink = sink if sink is not None else self
        #: items pushed but not yet landed; FIFO matches fire order
        #: because every push on one channel defers the same latency
        self._in_flight = deque()
        #: burst sizes of pending push_many() landings, FIFO with the
        #: same ordering argument as _in_flight
        self._burst_counts = deque()
        # Producer credits: slots claimed for transfers still in flight
        # plus items already buffered (the SNIC-side shadow-index view).
        self._claimed = 0
        #: high-water mark of the claim accounting (ring-depth peak);
        #: maintained on the claim paths only, so the put/get fast
        #: paths stay Store's untouched bound methods.
        self.claimed_peak = 0
        #: idle transfer_then leg records (steady state allocates none)
        self._legs = []
        # Uniform per-hop statistics.
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.bytes_moved = 0
        tracer = getattr(env, "tracer", None)
        if tracer is not None and tracer.enabled:
            self._tracer = tracer
            self.put = self._traced_put
            self.get = self._traced_get
            self.get_then = self._traced_get_then
            self.try_put = self._traced_try_put
            self.try_get = self._traced_try_get
        else:
            self._tracer = None

    # -- cost model --------------------------------------------------------

    def occupancy(self, nbytes):
        """Serialization time of *nbytes* on this hop."""
        if self.bandwidth is None:
            return self.min_occupancy
        occ = nbytes / self.bandwidth
        return occ if occ > self.min_occupancy else self.min_occupancy

    def transfer(self, nbytes=0, occupancy=None, post_latency=None):
        """Generator: move *nbytes* across the hop.

        Claims the issue slot (if serialized), holds it for the
        occupancy, releases, then lets ``post_latency`` (default: the
        channel's fixed ``latency``) elapse in the pipeline — the exact
        event sequence of the open-coded RDMA/PCIe/NIC paths it
        replaces.  The caller decides where the item lands; this method
        models time and accounts bytes only.
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size on %s" % self.name)
        if occupancy is None:
            occupancy = self.occupancy(nbytes)
        issue = self.issue
        if issue is not None:
            with issue.request() as req:
                yield req
                yield self.env.timeout(occupancy)
        else:
            yield self.env.timeout(occupancy)
        self.sent += 1
        self.bytes_moved += nbytes
        if self._tracer is not None:
            self._tracer.emit(self.name, "xfer", None, nbytes)
        latency = self.latency if post_latency is None else post_latency
        if latency:
            yield self.env.timeout(latency)

    def transfer_then(self, nbytes, callback, occupancy=None,
                      post_latency=None):
        """Callback twin of :meth:`transfer`: ``callback()`` runs when the
        hop completes.

        The same steps in the same order — issue slot, occupancy,
        release, ``sent``/``bytes_moved``, the ``xfer`` trace record,
        latency — on one pooled leg record, so a state machine built on
        it schedules what ``yield from transfer(...)`` would, minus the
        grant event of an idle issue slot (taken inline).  A zero
        latency calls *callback* synchronously after the release.
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size on %s" % self.name)
        if occupancy is None:
            occupancy = self.occupancy(nbytes)
        latency = self.latency if post_latency is None else post_latency
        if occupancy < 0 or latency < 0:
            raise SimulationError("negative transfer time on %s" % self.name)
        legs = self._legs
        leg = legs.pop() if legs else _TransferLeg(self)
        leg.nbytes = nbytes
        leg.occupancy = occupancy
        leg.latency = latency
        leg.callback = callback
        issue = self.issue
        if issue is None:
            leg._granted(None)
        elif not issue.try_hold(occupancy, leg.occupied):
            issue.acquire_then(leg.granted)

    def push(self, item, nbytes=0):
        """Fire-and-forget: land *item* in the sink after the hop latency.

        Drop-tail on a full sink (the receiver counts nothing; the
        channel's ``dropped`` statistic does).
        """
        self.sent += 1
        self.bytes_moved += nbytes
        self._in_flight.append(item)
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        # ``self._land`` is looked up per push, never cached: a fault
        # _WireHook shadows it on the instance while a window is open.
        heappush(env._queue, (env.now + self.latency, NORMAL, eid,
                              self._land, None))

    def _land(self, _event):
        item = self._in_flight.popleft()
        if self._sink.try_put(item):
            self.delivered += 1
            if self._tracer is not None:
                self._tracer.emit(self.name, "deliver", _msg_id(item))
        else:
            self.dropped += 1
            if self._tracer is not None:
                self._tracer.emit(self.name, "drop", _msg_id(item))

    def push_many(self, items, nbytes=0):
        """Batched fire-and-forget: the burst rides ONE landing event.

        The vectorized traffic plane's injection path (DESIGN.md
        §4.13): where N ``push()`` calls cost N deferred landings, a
        burst of N items here costs one deferred event, and when the
        sink is an idle plain FIFO (no parked getters/putters, no
        tracer, room for the whole burst) the landing is a single
        ``deque.extend``.  Any other sink state
        falls back to the per-item landing loop, which preserves
        ``push``'s exact drop-tail and getter-wake semantics item by
        item.  A one-item burst (most population frames) is a
        :meth:`push`: the same entry, ``_land`` looked up at push time.
        *nbytes* is the byte total of the whole burst.
        """
        count = len(items)
        if count == 1:
            # A one-item burst is a push: same entry, same landing.
            self.push(items[0], nbytes)
            return
        if count == 0:
            return
        self.sent += count
        self.bytes_moved += nbytes
        self._in_flight.extend(items)
        self._burst_counts.append(count)
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env.now + self.latency, NORMAL, eid,
                              self._land_many, None))

    def _land_many(self, _event):
        count = self._burst_counts.popleft()
        sink = self._sink
        # Bulk only into an untraced plain Store: routing sinks and
        # traced instances keep their per-item semantics via the _land
        # fallback.
        bulk_ok = (self._tracer is None
                   and type(sink).try_put is Store.try_put
                   and sink.__dict__.get("try_put") is None)
        in_flight = self._in_flight
        land = self._land
        while count:
            if (bulk_ok and not sink._getters and not sink._putters
                    and len(sink._items) + count <= sink.capacity):
                if len(in_flight) == count:
                    sink._items.extend(in_flight)
                    in_flight.clear()
                else:
                    popleft = in_flight.popleft
                    sink._items.extend([popleft() for _ in range(count)])
                sink.total_put += count
                self.delivered += count
                return
            # Parked waiter, tight capacity, or a non-bulk sink: land
            # one item the classic way and re-check.
            land(_event)
            count -= 1

    # -- producer credits ----------------------------------------------------

    @property
    def claimed(self):
        """Slots claimed by producers (in flight + buffered)."""
        return self._claimed

    def try_claim(self):
        """Reserve one slot for an in-flight transfer; False when full."""
        claimed = self._claimed
        if claimed >= self.capacity:
            return False
        claimed += 1
        self._claimed = claimed
        if claimed > self.claimed_peak:
            self.claimed_peak = claimed
        return True

    def release_claim(self):
        """Return one credit (consumer freed a slot, or claim expired)."""
        if self._claimed <= 0:
            raise CapacityError("releasing an unclaimed slot on %s"
                                % self.name)
        self._claimed -= 1

    def abort_claim(self):
        """Alias of :meth:`release_claim` for a failed delivery."""
        self.release_claim()

    def complete_claim(self, item):
        """Finish a claimed in-flight transfer: *item* becomes visible.

        A non-blocking put, since nothing waits on its completion:
        claim accounting guarantees space, and a full buffer despite
        the claim raises :class:`CapacityError`.
        """
        if self._claimed <= 0:
            raise CapacityError("completing an unclaimed slot on %s"
                                % self.name)
        self.delivered += 1
        if not Store.try_put(self, item):
            raise CapacityError("overflow on %s despite claim" % self.name)
        if self._tracer is not None:
            self._tracer.emit(self.name, "enq", _msg_id(item))

    # -- batch dequeue -----------------------------------------------------

    def recv_batch(self, max_items=0):
        """Drain up to *max_items* immediately-available items (0 = all).

        An empty buffer returns at once: ``try_get`` would find nothing.

        Bulk fast path: with no parked putters and no tracer,
        ``try_get`` reduces to one ``popleft`` — no events, no counters
        — so the whole drain is a single list copy.  The per-item loop
        remains for traced channels (per-item ``deq`` records) and for
        bounded channels with parked putters (each pop admits one).
        """
        items = self._items
        if not items:
            return []
        if not self._putters and self._tracer is None:
            if max_items <= 0 or max_items >= len(items):
                out = list(items)
                items.clear()
            else:
                popleft = items.popleft
                out = [popleft() for _ in range(max_items)]
            return out
        out = []
        try_get = self.try_get
        while max_items <= 0 or len(out) < max_items:
            item = try_get()
            if item is None:
                break
            out.append(item)
        return out

    # -- traced method shadows (installed per instance when tracing) -------

    def _traced_put(self, item):
        self._tracer.emit(self.name, "enq", _msg_id(item))
        return Store.put(self, item)

    def _traced_get(self):
        get = Store.get(self)
        get.callbacks.append(
            lambda evt: self._tracer.emit(self.name, "deq", _msg_id(evt._value)))
        return get

    def _traced_get_then(self, callback):
        tracer = self._tracer
        name = self.name

        def deq(item):
            tracer.emit(name, "deq", _msg_id(item))
            callback(item)

        Store.get_then(self, deq)

    def _traced_try_put(self, item):
        ok = Store.try_put(self, item)
        self._tracer.emit(self.name, "enq" if ok else "drop", _msg_id(item))
        return ok

    def _traced_try_get(self):
        item = Store.try_get(self)
        if item is not None:
            self._tracer.emit(self.name, "deq", _msg_id(item))
        return item

    def __repr__(self):
        return "<Channel %s depth=%d claimed=%d sent=%d dropped=%d>" % (
            self.name, len(self._items), self._claimed, self.sent,
            self.dropped)
