"""Lynx on the Innova Flex FPGA SNIC (§5.2).

``InnovaProfile.projected`` picks one of §5.2's two configurations.
The paper's partial prototype implements the Lynx network server as a
NICA AFU: an on-FPGA UDP stack parses each packet, appends the 4-byte
metadata and places the payload onto a custom ring (the mqueue) in
accelerator memory over a UC queue pair.  Two prototype limitations are
modelled faithfully:

* only the receive path exists (no responses are sent);
* the UC custom ring needs a host CPU helper thread to refill the QP
  receive queue and handle flow control — a per-message cost on a host
  core.

The projected full configuration (``INNOVA_PROJECTED``) drops both: RC
rings need no helper, and the AFU also sends responses.
"""

from ..errors import ConfigError
from ..lynx.dispatch import RoundRobin
from ..lynx.mqueue import METADATA_BYTES, MQueueEntry, SERVER
from ..sim import Channel, RateMeter

#: host helper-thread CPU cost per delivered message (QP refill).
#: The paper's helper keeps up with the full 7.4M pps AFU rate, so the
#: refill is a batched, sub-cycle operation.
HELPER_COST_US = 0.12


class InnovaLynxServer:
    """The AFU-resident Lynx receive pipeline."""

    def __init__(self, env, snic, helper_pool):
        if not snic.profile.projected and helper_pool is None:
            raise ConfigError(
                "the Innova prototype needs a host CPU helper thread (§5.2)")
        self.env = env
        self.snic = snic
        self.helper_pool = helper_pool
        self.name = "lynx-innova@%s" % snic.nic.ip
        self._ports = {}
        self._qps = {}
        self.delivered = RateMeter(env, name="%s-delivered" % self.name)
        self.responses = RateMeter(env, name="%s-resps" % self.name)
        self.dropped = 0
        env.process(self._rx_loop(), name="%s-rx" % self.name)
        # §5.2: the prototype's TX limitation "is not fundamental".  In
        # the projected full configuration (projected=True) the AFU also
        # polls TX doorbells over one-sided RDMA and sends responses
        # through its on-FPGA UDP stack.
        self._doorbells = Channel(env, name="%s-doorbells" % self.name)
        if snic.profile.projected:
            env.process(self._tx_loop(), name="%s-tx" % self.name)

    def bind(self, port, mqueues, policy=None):
        """Listen on *port*, dispatching into *mqueues* (AFU table entry).

        The prototype uses UC custom rings (hence the CPU helper); the
        projected full configuration uses one-sided RDMA over RC, which
        also enables the TX path's doorbell reads.
        """
        from ..net.rdma import RC, UC

        qp_type = RC if self.snic.profile.projected else UC
        qp = self.snic.rdma.connect(mqueues[0].memory,
                                    name="innova-qp-%d" % port,
                                    qp_type=qp_type)
        self._ports[port] = (policy or RoundRobin(), list(mqueues))
        self._qps[port] = qp
        if self.snic.profile.projected:
            for mq in mqueues:
                mq.tx_doorbell = self._doorbells
                mq.bound_port = port

    def send_path_unsupported(self):
        """§5.2: the prototype has no transmit path."""
        self.snic.check_tx_supported()

    def _rx_loop(self):
        while True:
            msg = yield self.snic.nic.recv()
            # AFU admission: the pipe channel accepts one message per
            # 1/afu_rate; everything downstream is pipelined.
            yield from self.snic.pipe.transfer(msg.wire_size,
                                               post_latency=0.0)
            self.snic.processed.tick()
            self.env.detached(self._deliver(msg))

    def _deliver(self, msg):
        yield self.env.timeout(self.snic.profile.pipeline_latency)
        binding = self._ports.get(msg.dst.port)
        if binding is None:
            self.dropped += 1
            return
        policy, mqueues = binding
        mq = policy.select(mqueues, msg)
        if not mq.claim_rx_slot():
            self.dropped += 1
            return
        qp = self._qps[msg.dst.port]
        yield from self.snic.rdma.write(qp, msg.size + METADATA_BYTES)
        # UC custom ring: host helper refills the receive queue.
        if not self.snic.profile.projected:
            yield from self.helper_pool.run_calibrated(HELPER_COST_US)
        entry = MQueueEntry(payload=msg.payload, size=msg.size,
                            request_msg=msg)
        mq.complete_rx(entry)
        self.delivered.tick()

    # -- projected TX path (§5.2 "future" configuration) -------------------

    def _tx_loop(self):
        env = self.env
        while True:
            mq = yield self._doorbells.get()
            while True:
                entry = mq.tx_ring.try_get()
                if entry is None:
                    break
                env.detached(self._send(mq, entry))

    def _send(self, mq, entry):
        qp = self._qps[mq.bound_port]
        # one-sided read fetches the response from the ring...
        yield from self.snic.rdma.read(qp, entry.size + METADATA_BYTES)
        # ...and the AFU's UDP stack emits it at line rate
        yield from self.snic.pipe.transfer(entry.size + METADATA_BYTES,
                                           post_latency=0.0)
        yield self.env.timeout(self.snic.profile.pipeline_latency)
        request = entry.request_msg
        if request is None:
            return
        response = request.reply(entry.payload, created_at=self.env.now,
                                 size=entry.size)
        self.responses.tick()
        yield from self.snic.nic.send(response)
