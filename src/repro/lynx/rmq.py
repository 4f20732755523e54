"""Remote Message Queue Manager (§4.2, §5.1).

Runs on the SNIC and owns all RDMA access to one accelerator's mqueues:

* **ingress** — after the dispatcher picks an mqueue, the manager posts
  a one-sided RDMA write of payload + 4B coalesced metadata into the RX
  ring, or drops the message when the ring is full (UDP drop-tail).
  If the accelerator requires the PCIe-ordering workaround (§5.1),
  delivery becomes three operations (data write, barrier read,
  doorbell write) and coalescing is disabled, costing ~5us extra.
* **egress** — the accelerator cannot interrupt the SNIC, so the
  manager *polls* TX doorbells over RDMA.  We model the poll loop as
  doorbell-armed sweeps: a sweep visits every ring of the accelerator
  (costing per-ring scan time on an SNIC core), issues an RDMA read to
  fetch every pending response, and hands them to the forwarder.
  Sweeps repeat at the configured interval while work remains.

All RDMA ops flow through the engine's serialized
:class:`~repro.sim.Channel` (``manager.channel``): per §5.1 all mqueues
of one accelerator share a single RC QP, so the manager *is* the
per-QP delivery worker and the channel's issue slot is the QP
arbitration point between ingress writes and egress poll reads.

Each delivery runs as a small callback state machine
(:class:`_DeliveryOp`) whose op records are pooled on the manager.
A *single* blocking worker coroutine would serialize QP arbitration
and kill the op-level pipelining the RDMA engine models, so the state
machine keeps the steps of the old per-message processes — one
``Channel.transfer_then`` hop (request → occupancy → release →
latency) per RDMA op, in order — while spawning zero processes per
message.  The process's URGENT start kick only relayed to the first
hop, so the op starts it at once (DESIGN.md §4.6 relay-collapse rule).
"""

from ..errors import ConfigError
from ..sim import Channel
from .. import telemetry
from .mqueue import METADATA_BYTES, MQueueEntry


class _DeliveryOp:
    """One in-flight ingress delivery on the manager's QP.

    Mirrors the retired ``_rdma_deliver`` generator step for step: the
    plan's RDMA ops as :meth:`RemoteMQManager._post` legs, the first
    posted from :meth:`start` (the generator's start kick only relayed
    to it).  The record itself is recycled onto ``manager._op_pool``
    after the final op.
    """

    __slots__ = ("manager", "mq", "msg", "entry", "plan", "index")

    def __init__(self, manager):
        self.manager = manager
        self.mq = None
        self.msg = None
        self.entry = None
        self.plan = None
        self.index = 0

    def start(self, mq, msg):
        manager = self.manager
        self.mq = mq
        self.msg = msg
        self.entry = MQueueEntry(payload=msg.payload, size=msg.size,
                                 request_msg=msg)
        self.plan = manager._plan_ops(msg.size)
        self.index = 0
        manager._post(self.plan[0], self._op_done)

    def _op_done(self):
        manager = self.manager
        manager.engine.account(manager.qp, self.plan[self.index][2])
        self.index += 1
        if self.index < len(self.plan):
            manager._post(self.plan[self.index], self._op_done)
            return
        manager.deliveries += 1
        msg = self.msg
        if msg.meta is not None:
            msg.meta["t_delivered"] = manager.env.now
        mq, entry = self.mq, self.entry
        self.mq = self.msg = self.entry = self.plan = None
        if len(manager._op_pool) < manager.OP_POOL_CAP:
            manager._op_pool.append(self)
        mq.complete_rx(entry)


class _PollerOp:
    """The egress doorbell-poll loop as a callback state machine.

    Mirrors the retired ``_tx_poll_loop``/``_sweep_and_drain``/``_sweep``
    generator trio step for step: doorbell wait, per-sweep scan cost at
    egress core priority, the notification-region RDMA read, the bulk
    ring read, forwarder hand-off, and the inter-sweep pacing charge —
    each consuming the same schedule slots in the same order.
    """

    __slots__ = ("manager", "nbytes", "pending")

    def __init__(self, manager):
        self.manager = manager
        self.nbytes = 0
        self.pending = None
        # URGENT kick at now: the slot the poller Process's init used.
        manager.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        """Sleep until an accelerator rings a TX doorbell."""
        self.manager._doorbells.get_then(self._on_doorbell)

    def _on_doorbell(self, _mq):
        self.manager._drain_doorbells()
        self._sweep()

    def _sweep(self):
        manager = self.manager
        manager.sweeps += 1
        workers = manager.workers
        scan_cost = (manager.profile.mqueue_visit_cost
                     * max(1, len(manager.mqueues)))
        # run_compute(scan_cost, priority=-1): no cache arguments.
        workers.run_then(scan_cost / workers.profile.speed_factor,
                         self._scanned, priority=-1, memory_intensity=0.0,
                         working_set=0)

    def _scanned(self):
        # Doorbells are *discovered* by reading the notification region
        # over RDMA — one read round trip per sweep (§4.3: "both the
        # accelerator and the SNIC use polling").
        self._read(4 * max(1, len(self.manager.mqueues)), self._notified)

    def _read(self, nbytes, then):
        """engine.read(qp, nbytes) through the engine channel."""
        manager = self.manager
        self.nbytes = nbytes
        manager.channel.transfer_then(
            nbytes, then, post_latency=manager.engine.op_latency(manager.qp, 2))

    def _notified(self):
        manager = self.manager
        manager.engine.account(manager.qp, self.nbytes)
        pending = []
        total_bytes = 0
        for mq in manager.mqueues:
            while True:
                entry = mq.tx_ring.try_get()
                if entry is None:
                    break
                pending.append((mq, entry))
                total_bytes += entry.size + METADATA_BYTES
        if not pending:
            self._after_sweep(0)
            return
        self.pending = pending
        # One RDMA read fetches the freshly produced ring region.
        self._read(total_bytes, self._fetched)

    def _fetched(self):
        manager = self.manager
        manager.engine.account(manager.qp, self.nbytes)
        pending = self.pending
        self.pending = None
        sink = manager._tx_sink
        if sink is None:
            raise ConfigError("no forwarder installed on %s" % manager.name)
        for mq, entry in pending:
            sink(mq, entry)
        self._after_sweep(len(pending))

    def _after_sweep(self, collected):
        """Consume the doorbells the sweep satisfied, then pace or sleep."""
        manager = self.manager
        manager._drain_doorbells()
        if collected == 0:
            self._arm()
            return
        manager.env.defer(manager.profile.sweep_interval, self._interval_done)

    def _interval_done(self, _event):
        self._sweep()


class RemoteMQManager:
    """SNIC-side manager of one accelerator's mqueues."""

    #: max pooled delivery-op records (bounds steady-state in-flight ops)
    OP_POOL_CAP = 1024

    def __init__(self, env, accelerator, qp, workers, lynx_profile,
                 needs_barrier=False):
        self.env = env
        self.accelerator = accelerator
        self.qp = qp
        #: the engine's serialized Channel all of this manager's RDMA
        #: ops flow through (QP arbitration point)
        self.channel = qp.engine.channel
        self.workers = workers
        self.profile = lynx_profile
        self.needs_barrier = needs_barrier
        self.name = "rmq-%s" % getattr(accelerator, "name", "accel")
        self.mqueues = []
        self._mqueue_set = set()
        self._op_pool = []
        self._doorbells = Channel(env, name="%s-doorbells" % self.name)
        self._tx_sink = None
        self._poller = _PollerOp(self)
        self.deliveries = 0
        self.sweeps = 0
        # Telemetry (DESIGN.md §4.9): the counters are pulled at
        # snapshot time.
        reg = telemetry.registry()
        base = "lynx.rmq.%s." % self.name
        reg.pull(base + "deliveries", lambda: self.deliveries)
        reg.pull(base + "sweeps", lambda: self.sweeps)

    @property
    def engine(self):
        return self.qp.engine

    # -- registration -----------------------------------------------------------

    def register(self, mq):
        """Attach an mqueue of this accelerator to the manager."""
        if mq.tx_doorbell is not None:
            raise ConfigError("mqueue %s already registered" % mq.name)
        mq.tx_doorbell = self._doorbells
        self.mqueues.append(mq)
        self._mqueue_set.add(mq)
        return mq

    def on_tx(self, callback):
        """Install the forwarder callback: ``callback(mq, entry)``."""
        self._tx_sink = callback

    # -- ingress -------------------------------------------------------------------

    def deliver(self, mq, msg):
        """Called by a worker after dispatch: start the RDMA delivery.

        Returns True if a ring slot was claimed, False if the message
        was dropped — UDP semantics under overload.
        """
        if mq not in self._mqueue_set:
            raise ConfigError("mqueue %s is not managed by %s" % (mq.name, self.name))
        if not mq.claim_rx_slot():
            return False
        pool = self._op_pool
        op = pool.pop() if pool else _DeliveryOp(self)
        op.start(mq, msg)
        return True

    def _post(self, op, then):
        """One planned RDMA op on the QP's engine channel, then *then()*."""
        occupancy, latency, nbytes = op
        self.channel.transfer_then(nbytes, then, occupancy=occupancy,
                                   post_latency=latency)

    def _plan_ops(self, nbytes):
        """The RDMA op sequence delivering one *nbytes*-byte message.

        Each entry is ``(occupancy, latency, nbytes)``; the write
        barrier is a zero-byte read.
        """
        engine = self.engine
        profile = engine.profile
        write_latency = profile.op_latency
        if self.qp.remote:
            write_latency += profile.remote_extra_latency
        channel = self.channel
        if self.needs_barrier or not self.profile.coalesce_metadata:
            # Payload write, the write barrier if needed, then the
            # doorbell write carrying the metadata word.
            from ..net.rdma import _MIN_OP_GAP
            plan = [(channel.occupancy(nbytes), write_latency, nbytes)]
            if self.needs_barrier:
                plan.append((_MIN_OP_GAP, profile.barrier_latency, 0))
            plan.append((channel.occupancy(METADATA_BYTES), write_latency,
                         METADATA_BYTES))
            return plan
        # Metadata coalesced with the payload: one RDMA write, and
        # the doorbell (last word) becomes visible after the data.
        nbytes += METADATA_BYTES
        return [(channel.occupancy(nbytes), write_latency, nbytes)]

    # -- egress ----------------------------------------------------------------------
    # The poll loop itself lives in :class:`_PollerOp`.  Doorbell tokens
    # raised before or during a sweep are covered by it (a sweep visits
    # every ring), so the op drains the store right after each sweep —
    # a zero-collect sweep therefore re-arms on an empty doorbell store.

    def _drain_doorbells(self):
        while self._doorbells.try_get() is not None:
            pass
