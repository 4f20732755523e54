"""SmartNIC device models (Figure 2).

* :class:`BluefieldSNIC` — processor-based SNIC: 8 ARM A72 cores behind
  the ConnectX ASIC, running BlueOS Linux with the VMA user-level stack,
  multi-homed with its own IP (§2).  Lynx's complete prototype runs
  here.
* :class:`InnovaSNIC` — bump-in-the-wire FPGA SNIC running a NICA-style
  AFU (§5.2).  Extremely high message rate, but (faithfully to the
  paper's prototype) receive-path only and requiring a host CPU helper
  thread per custom ring.
"""

from ..errors import ConfigError
from ..sim import Channel, RateMeter
from .cpu import CpuSocket, CorePool
from .nic import RdmaNic


class BluefieldSNIC:
    """Mellanox Bluefield: ARM cores + NIC ASIC + RDMA engine."""

    def __init__(self, env, network, ip, profile, cache_profile, rng,
                 name=None):
        self.env = env
        self.profile = profile
        self.name = name or "bluefield-%s" % ip
        self.nic = RdmaNic(env, network, ip, profile.rdma,
                           link_rate=profile.link_rate,
                           name="%s-port" % self.name)
        self.socket = CpuSocket(env, profile.cpu, cache_profile,
                                rng, name=self.name)
        if profile.worker_cores > profile.cpu.cores:
            raise ConfigError("worker_cores exceeds SNIC core count")
        #: cores Lynx may use (§6.1: 7 of the 8; one is left to the OS)
        self.workers = CorePool(env, profile.cpu,
                                count=profile.worker_cores,
                                llc=self.socket.llc,
                                name="%s-workers" % self.name)
        self.stack_profile = profile.stack

    @property
    def rdma(self):
        return self.nic.rdma


class InnovaSNIC:
    """Mellanox Innova Flex: FPGA AFU in front of the NIC ASIC."""

    def __init__(self, env, network, ip, profile, name=None):
        self.env = env
        self.profile = profile
        self.name = name or "innova-%s" % ip
        self.nic = RdmaNic(env, network, ip, profile.rdma,
                           link_rate=profile.link_rate,
                           name="%s-port" % self.name)
        # The AFU is a hardware pipeline, modelled as one serialized
        # Channel: messages are accepted at the AFU rate (the channel's
        # issue gap) and then flow through with a fixed cut-through
        # latency, overlapping each other.
        self.pipe = Channel(env, serialized=True,
                            min_occupancy=1.0 / profile.afu_rate_pps,
                            latency=profile.pipeline_latency,
                            name="%s-afu" % self.name)
        self.processed = RateMeter(env, name="%s-pps" % self.name)

    @property
    def rdma(self):
        return self.nic.rdma

    def check_tx_supported(self):
        """The paper's Innova prototype implements only the receive path."""
        if not self.profile.projected:
            raise ConfigError(
                "Innova prototype implements the receive path only (§5.2)")
