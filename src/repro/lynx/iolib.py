"""The accelerator-side I/O library (§5.3).

The paper's point is that this layer is *tiny* — thin wrappers over the
mqueue rings with zero-copy send/recv (the VCA version is 20 lines of C
and links into an SGX enclave).  Every operation touches only
accelerator-local memory; all heavy lifting happens on the SNIC.
"""

from ..errors import ConfigError
from ..net.packet import payload_size
from .mqueue import MQueueEntry


class AcceleratorIO:
    """send/recv wrappers over mqueues for one accelerator context."""

    def __init__(self, env, local_latency):
        if local_latency < 0:
            raise ConfigError("negative local access latency")
        self.env = env
        #: cost of one local-memory ring access (poll observe / enqueue)
        self.local_latency = local_latency
        self.received = 0
        self.sent = 0

    def recv(self, mq):
        """Generator: block until a request is available on *mq*.

        Returns the :class:`MQueueEntry`.  The cost on top of waiting is
        a single local-memory access — the doorbell poll that observed
        the new message (this is the "lightweight I/O" property §4.4
        demands from accelerators).
        """
        entry = yield mq.pop_rx()
        yield self.env.timeout(self.local_latency)
        self.received += 1
        if entry.request_msg is not None:
            entry.request_msg.meta["t_accel_start"] = self.env.now
        return entry

    def send(self, mq, payload, size=None, reply_to=None, error=0):
        """Generator: enqueue a message on *mq*'s TX ring and ring the
        doorbell.

        For server mqueues pass the originating entry as *reply_to* so
        the SNIC can route the response to the right client.  Client
        mqueues need no addressing — their destination is static.
        """
        nbytes = payload_size(payload) if size is None else size
        entry = MQueueEntry(
            payload=payload, size=nbytes, error=error,
            request_msg=reply_to.request_msg if reply_to is not None else None)
        if entry.request_msg is not None:
            entry.request_msg.meta["t_accel_done"] = self.env.now
        # Local write of payload+metadata, then the control register.
        yield self.env.timeout(self.local_latency)
        yield mq.push_tx(entry)
        mq.ring_doorbell()
        self.sent += 1
        return entry
