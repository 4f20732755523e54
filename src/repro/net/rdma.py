"""One-sided RDMA (the transport between SNIC and accelerator mqueues).

Lynx's key portability trick (§4.2): the SNIC accesses mqueues in
accelerator memory with one-sided RDMA through the NIC's hardware
engine, so no accelerator driver runs on the SNIC, and remote
accelerators (behind their own RDMA NICs) look exactly like local ones.

The engine model: posting a work request costs ``post_cost`` on the
calling core (charged by the caller, not here).  The engine is one
serialized :class:`~repro.sim.Channel` (``engine.channel``): payload
movement holds the channel's issue slot at the engine bandwidth with a
per-op floor, then op latency elapses in the pipeline, so independent
ops overlap.  A QP to a remote accelerator adds
``remote_extra_latency`` per direction.  The RMQ manager's callback
state machines post through the same channel, which is what keeps QP
arbitration between ingress writes and egress poll reads fair.
"""

from ..errors import ConfigError, NetworkError
from ..sim import Channel

#: minimum issue gap between ops (engine message rate ~10M op/s)
_MIN_OP_GAP = 0.1


#: queue pair types (§2, §5.2): Lynx uses Reliable Connections; the
#: Innova prototype's custom rings ride Unreliable Connections, which
#: is why they need a CPU helper for flow control.
RC = "rc"
UC = "uc"


class QueuePair:
    """A queue pair from an engine to one accelerator's memory.

    Lynx creates **one RC QP per accelerator** and coalesces all of that
    accelerator's mqueues onto it (§5.1), which we mirror: the QP is the
    unit of pipeline ordering.
    """

    __slots__ = ("engine", "target", "remote", "name", "qp_type", "ops",
                 "bytes_moved")

    def __init__(self, engine, target, remote=False, name=None, qp_type=RC):
        if qp_type not in (RC, UC):
            raise ConfigError("unknown QP type %r" % qp_type)
        self.engine = engine
        self.target = target
        self.remote = remote
        self.name = name or "qp-%s" % getattr(target, "name", target)
        self.qp_type = qp_type
        self.ops = 0
        self.bytes_moved = 0


class RdmaEngine:
    """The hardware RDMA engine of one (Smart)NIC."""

    def __init__(self, env, profile, name="rdma"):
        self.env = env
        self.profile = profile
        self.name = name
        #: the engine pipe: every one-sided op serializes through here
        self.channel = Channel(env, name="%s-pipe" % name, serialized=True,
                               bandwidth=profile.bandwidth,
                               min_occupancy=_MIN_OP_GAP)
        self.ops_posted = 0

    def connect(self, target, remote=False, name=None, qp_type=RC):
        """Create a QP whose buffers live in *target* memory."""
        if target is None:
            raise ConfigError("QP target memory required")
        if remote and not getattr(target, "exposed_on_pcie", True):
            raise NetworkError(
                "remote RDMA requires PCIe-exposed target memory (§4.4)")
        if qp_type == UC and remote:
            raise NetworkError(
                "unreliable connections cannot span machines here: the "
                "receiver-side flow control has no transport to lean on")
        return QueuePair(self, target, remote=remote, name=name,
                         qp_type=qp_type)

    # -- one-sided operations ------------------------------------------------

    def op_latency(self, qp, round_trips):
        """Pipeline latency of one op on *qp* (completion after issue)."""
        latency = self.profile.op_latency * round_trips
        if qp.remote:
            latency += self.profile.remote_extra_latency * round_trips
        return latency

    def write(self, qp, nbytes):
        """Generator: one-sided RDMA write; completes when data is placed."""
        yield from self._op(qp, nbytes, round_trips=1)

    def read(self, qp, nbytes):
        """Generator: one-sided RDMA read; needs a full round trip.

        InfiniBand supports RDMA reads on reliable connections only.
        """
        if qp.qp_type != RC:
            raise NetworkError("RDMA reads require an RC queue pair")
        yield from self._op(qp, nbytes, round_trips=2)

    def barrier_read(self, qp):
        """Generator: the §5.1 consistency write-barrier (zero-byte read).

        Requires a reliable connection (reads are RC-only in IB).

        NVIDIA's documented workaround orders NIC writes into GPU memory
        by issuing an RDMA read between the payload write and the
        doorbell write; the paper measures ~5us extra per message.
        """
        if qp.qp_type != RC:
            raise NetworkError("RDMA reads require an RC queue pair")
        yield from self.channel.transfer(
            0, occupancy=_MIN_OP_GAP,
            post_latency=self.profile.barrier_latency)
        self.account(qp, 0)

    def _op(self, qp, nbytes, round_trips):
        if qp.engine is not self:
            raise NetworkError("QP %s belongs to another engine" % qp.name)
        if nbytes < 0:
            raise ConfigError("negative RDMA size")
        yield from self.channel.transfer(
            nbytes, post_latency=self.op_latency(qp, round_trips))
        self.account(qp, nbytes)

    def account(self, qp, nbytes):
        """Count one completed op of *nbytes* on *qp* (every op path)."""
        qp.ops += 1
        qp.bytes_moved += nbytes
        self.ops_posted += 1

    # -- analytic helpers -----------------------------------------------------

    def write_time(self, nbytes, remote=False):
        """Uncontended completion time of a write (for tests/calibration)."""
        t = self.channel.occupancy(nbytes) + self.profile.op_latency
        if remote:
            t += self.profile.remote_extra_latency
        return t
