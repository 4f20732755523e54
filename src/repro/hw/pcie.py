"""PCIe links and peer-to-peer DMA paths.

Lynx's data plane rides on PCIe peer-to-peer DMA between the (Smart)NIC
and accelerator BARs (Figure 3): the host CPU is not on the path.  Each
link direction is one serialized :class:`~repro.sim.Channel` with a
fixed traversal latency plus size/bandwidth serialization delay, held
while the transfer occupies the direction.
"""

from ..errors import ConfigError
from ..sim import Channel


class PcieLink:
    """A bidirectional PCIe link (e.g. device <-> switch/root complex)."""

    def __init__(self, env, profile, name=None):
        self.env = env
        self.profile = profile
        self.name = name or profile.name
        self._channel = {
            "up": Channel(env, serialized=True,
                          bandwidth=profile.bandwidth,
                          name="%s-up" % self.name),
            "down": Channel(env, serialized=True,
                            bandwidth=profile.bandwidth,
                            name="%s-down" % self.name),
        }

    def channel(self, direction):
        """The Channel modelling *direction* (for tests/stats)."""
        try:
            return self._channel[direction]
        except KeyError:
            raise ConfigError("bad PCIe direction %r" % direction)

    def transfer(self, nbytes, direction="down"):
        """Generator: move *nbytes* across the link in *direction*.

        The fixed traversal latency is part of the occupancy (the
        direction is held for latency + serialization, matching how a
        posted-write burst owns the lane), so ``post_latency`` is zero.
        """
        channel = self.channel(direction)
        yield from channel.transfer(
            nbytes,
            occupancy=self.profile.latency + nbytes / self.profile.bandwidth,
            post_latency=0.0)

    def transfer_time(self, nbytes):
        """Uncontended transfer time for *nbytes* (for analytic checks)."""
        return self.profile.latency + nbytes / self.profile.bandwidth


class PcieFabric:
    """The PCIe topology inside one machine.

    Devices attach with their link; a DMA between two devices traverses
    both links (through the switch / root complex), which adds a small
    hop latency.  P2P DMA never touches a CPU core — exactly the
    property Lynx relies on.
    """

    #: latency (us) a DMA adds crossing the switch / root complex
    hop_latency = 0.2

    def __init__(self, env):
        self.env = env
        self._links = {}

    def attach(self, device_name, link):
        if device_name in self._links:
            raise ConfigError("device %r already attached" % device_name)
        self._links[device_name] = link

    def link_of(self, device_name):
        try:
            return self._links[device_name]
        except KeyError:
            raise ConfigError("device %r not on this PCIe fabric" % device_name)

    def dma(self, src, dst, nbytes):
        """Generator: peer-to-peer DMA of *nbytes* from *src* to *dst*."""
        src_link = self.link_of(src)
        dst_link = self.link_of(dst)
        yield from src_link.transfer(nbytes, "up")
        yield self.env.timeout(self.hop_latency)
        yield from dst_link.transfer(nbytes, "down")

    def devices(self):
        return tuple(self._links)
