"""Network interface cards.

:class:`Nic` is a plain port: an RX ring and a TX serializer, both
modelled as :class:`~repro.sim.Channel` hops (the TX channel owns the
port's issue slot and serializes frames at the link rate).
:class:`RdmaNic` adds a ConnectX-class one-sided RDMA engine — the
piece Lynx uses to reach mqueues in accelerator memory, both locally
(peer-to-peer PCIe) and on remote machines (§5.5).
"""

from .. import units
from ..sim import Channel, RateMeter
from .. import telemetry
from ..net.rdma import RdmaEngine


class Nic:
    """A NIC port attached to the network fabric."""

    #: descriptors in the RX ring; overflow is dropped (drop-tail)
    RX_RING_ENTRIES = 1024

    def __init__(self, env, network, ip, link_rate=units.gbps(40), name=None):
        self.env = env
        self.network = network
        self.ip = ip
        self.link_rate = link_rate
        self.name = name or "nic-%s" % ip
        self.rx = Channel(env,
                          capacity=self.RX_RING_ENTRIES,
                          name="%s-rx" % self.name)
        #: the port's TX serializer: one frame at a time at line rate
        self.tx = Channel(env, serialized=True, bandwidth=link_rate,
                          name="%s-tx" % self.name)
        self.tx_rate = RateMeter(env, name="%s-txrate" % self.name)
        self.rx_rate = RateMeter(env, name="%s-rxrate" % self.name)
        # Telemetry (DESIGN.md §4.9): live meters register directly,
        # and the TX serializer's issue-slot gauge is the port's link
        # utilization.  (RX-ring drop-tail is accounted on the wire
        # channel, registered by Network.attach as net.wire.<ip>.drops.)
        reg = telemetry.registry()
        base = "hw.nic.%s." % ip
        reg.register(base + "rx.pkts", self.rx_rate)
        reg.register(base + "tx.pkts", self.tx_rate)
        reg.register(base + "tx.util", self.tx.issue.utilization)
        network.attach(ip, self)

    def send(self, msg):
        """Generator: serialize *msg* out of the port."""
        yield from self.tx.transfer(msg.wire_size)
        self.tx_rate.tick()
        self.network.deliver(msg)

    def send_async(self, msg):
        """Fire-and-forget variant of :meth:`send`."""
        self.env.detached(self.send(msg))

    def recv(self):
        """Event: next received message (also counts RX rate)."""
        get = self.rx.get()
        get.callbacks.append(lambda evt: self.rx_rate.tick())
        return get


class RdmaNic(Nic):
    """A NIC with a hardware RDMA engine (ConnectX-4/5, Bluefield ASIC)."""

    def __init__(self, env, network, ip, rdma_profile,
                 link_rate=units.gbps(40), name=None):
        super().__init__(env, network, ip, link_rate, name)
        self.rdma = RdmaEngine(env, rdma_profile, name="%s-rdma" % self.name)
