"""Memory regions.

A :class:`MemoryRegion` is a named location data can live in (host DRAM,
GPU device memory, SNIC memory).  Models charge its ``access_latency``
when they touch it from the owning device; remote access goes through
the RDMA model, which adds its own costs.
"""

from ..errors import ConfigError


class MemoryRegion:
    """A region of physical memory owned by one device."""

    def __init__(self, name, access_latency=0.1, exposed_on_pcie=True):
        if access_latency < 0:
            raise ConfigError("negative access latency")
        self.name = name
        #: latency of a local load/store round trip from the owning device
        self.access_latency = access_latency
        #: whether the region is reachable by PCIe peers (BAR-exposed);
        #: Lynx requires this of accelerators (§4.4, requirement 1)
        self.exposed_on_pcie = exposed_on_pcie

    def __repr__(self):
        return "<MemoryRegion %s %.2fus%s>" % (
            self.name, self.access_latency,
            "" if self.exposed_on_pcie else " (not BAR-exposed)")


#: Typical local-access latencies (us) used when building devices.
HOST_DRAM_LATENCY = 0.09
GPU_GDDR_LATENCY = 0.35
SNIC_DRAM_LATENCY = 0.12
