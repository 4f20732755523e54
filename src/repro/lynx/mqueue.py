"""Message queues (mqueues) — Lynx's accelerator-facing abstraction (§4.2).

An mqueue is a pair of producer-consumer rings (RX and TX) plus
notification registers, resident in **accelerator local memory** so that
the accelerator's enqueue/dequeue cost is exactly a local memory access.
The SNIC reaches the rings remotely via one-sided RDMA (see
:mod:`repro.lynx.rmq`).

Both rings are :class:`~repro.sim.Channel` instances; the RX ring's
credit accounting models what the SNIC-side shadow indices can see
(slots claimed by in-flight RDMA writes count as occupied), so a
delivery that finds no free slot is dropped (UDP drop-tail).

Two types (§4.3):

* **server** mqueues are connection-less and bound to a listening port;
  a response is routed back to whichever client sent the request
  (multiple client connections multiplex onto one ring);
* **client** mqueues carry requests to one statically-configured
  destination (e.g. a memcached backend) and receive its responses.
"""

from ..errors import CapacityError, ConfigError
from ..sim import Channel
from .. import telemetry

SERVER = "server"
CLIENT = "client"

#: error codes carried in the 4-byte metadata (§5.1)
ERR_NONE = 0
ERR_CONNECTION = 1
ERR_TIMEOUT = 2
#: the accelerator behind this mqueue is dark; the SNIC shed the request
ERR_UNAVAILABLE = 3

#: §5.1: 4 bytes of metadata (size, error, doorbell) coalesced with the
#: payload into a single RDMA write.
METADATA_BYTES = 4


def _next_mq_id(env):
    """Per-environment mqueue sequence for default names.

    Environment-scoped (not a module global) so forked sweep workers and
    parallel points derive identical default names from identical
    testbeds — registry keys must not depend on process history.
    """
    seq = getattr(env, "_mq_seq", 0) + 1
    env._mq_seq = seq
    return seq


class MQueueEntry:
    """One ring slot: payload plus the 4-byte control metadata."""

    __slots__ = ("payload", "size", "error", "request_msg", "enqueued_at")

    def __init__(self, payload, size, request_msg=None, error=0):
        self.payload = payload
        self.size = size
        self.error = error
        #: the network message this entry came from (zero-copy reference;
        #: carries reply routing: source address, TCP connection, ...)
        self.request_msg = request_msg
        self.enqueued_at = 0.0


class MQueue:
    """One mqueue: RX + TX rings in accelerator memory."""

    def __init__(self, env, memory, entries, kind=SERVER, destination=None,
                 proto="udp", name=None):
        if entries < 1:
            raise ConfigError("mqueue needs at least one ring entry")
        if kind not in (SERVER, CLIENT):
            raise ConfigError("unknown mqueue kind %r" % kind)
        if kind == CLIENT and destination is None:
            raise ConfigError(
                "client mqueues bind their destination at init (§4.3)")
        if kind == SERVER and destination is not None:
            raise ConfigError("server mqueues are connection-less")
        self.env = env
        self.mq_id = _next_mq_id(env)
        self.memory = memory
        self.entries = entries
        self.kind = kind
        self.destination = destination
        self.proto = proto
        self.name = name or "mq%d" % self.mq_id
        # Rings as Channels: the RX ring's claim accounting is the
        # SNIC-visible occupancy (in-flight RDMA writes included).
        self.rx_ring = Channel(env, capacity=entries,
                               name="%s-rx" % self.name)
        self.tx_ring = Channel(env, capacity=entries,
                               name="%s-tx" % self.name)
        #: doorbell channel to the Remote MQ Manager (set on registration)
        self.tx_doorbell = None
        #: source port the SNIC uses for this client mqueue's traffic
        self.src_port = None
        #: TCP connection of a client mqueue (established at setup)
        self.conn = None
        #: the port binding that owns this server mqueue (at most one)
        self.bound_port = None
        self.delivered = 0
        self.dropped = 0
        self.sent = 0
        # Telemetry (DESIGN.md §4.9): pull instruments read the plain
        # attributes above at snapshot time — the data plane pays
        # nothing for being observable.
        reg = telemetry.registry()
        base = "mqueue.%s." % self.name
        reg.pull_peak(base + "depth", lambda: self.rx_ring.claimed_peak)
        reg.pull(base + "delivered", lambda: self.delivered)
        reg.pull(base + "dropped", lambda: self.dropped)
        reg.pull(base + "sent", lambda: self.sent)

    # -- SNIC-side (RDMA producer) ---------------------------------------------

    def claim_rx_slot(self):
        """Reserve an RX slot if one is free; False means drop (UDP)."""
        if self.rx_ring.try_claim():
            return True
        self.dropped += 1
        return False

    def complete_rx(self, entry):
        """Finish an RDMA delivery: the entry becomes visible on the ring."""
        entry.enqueued_at = self.env.now
        self.delivered += 1
        # The put cannot block: claim accounting guarantees space
        # (complete_claim raises CapacityError otherwise).
        self.rx_ring.complete_claim(entry)

    def abort_rx(self):
        """Release a claimed slot after a failed delivery."""
        self.rx_ring.abort_claim()

    # -- accelerator-side ---------------------------------------------------------

    def pop_rx(self):
        """Event: the accelerator's blocking dequeue from the RX ring."""
        get = self.rx_ring.get()
        get.callbacks.append(self._on_rx_pop)
        return get

    def _on_rx_pop(self, event):
        self.rx_ring.release_claim()

    def push_tx(self, entry):
        """Event: the accelerator's enqueue onto the TX ring."""
        entry.enqueued_at = self.env.now
        self.sent += 1
        return self.tx_ring.put(entry)

    def ring_doorbell(self):
        """Notify the SNIC that TX work is pending (doorbell register)."""
        if self.tx_doorbell is None:
            raise ConfigError("mqueue %s is not registered with an RMQ manager"
                              % self.name)
        # Nothing waits on the doorbell write itself, so it schedules no
        # completion; the doorbell store is unbounded.
        if not self.tx_doorbell.try_put(self):
            raise CapacityError("doorbell overflow on %s" % self.name)

    # -- fault recovery -----------------------------------------------------------

    def drain(self):
        """Flush both rings after an accelerator crash; returns entries lost.

        RX entries release their producer credits as they are discarded,
        so deliveries after the restart find free slots again.  Unconsumed
        TX entries (responses the dead kernel never shipped) are dropped.
        """
        lost = 0
        while self.rx_ring.try_get() is not None:
            self.rx_ring.release_claim()
            lost += 1
        while self.tx_ring.try_get() is not None:
            lost += 1
        self.dropped += lost
        return lost

    # -- introspection -------------------------------------------------------------

    @property
    def rx_occupancy(self):
        return self.rx_ring.claimed

    def __repr__(self):
        return "<MQueue %s kind=%s rx=%d tx=%d dropped=%d>" % (
            self.name, self.kind, len(self.rx_ring), len(self.tx_ring),
            self.dropped)
