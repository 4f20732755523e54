"""A physical server machine: CPU socket, NIC, accelerators.

Mirrors the paper's testbed nodes (§6): Xeon E5-2620v2 hosts with a
ConnectX-class RDMA NIC and one or more GPUs.  PCIe is not a modelled
hop: a GPU DMA copy pays a fixed per-traversal latency
(:data:`~repro.hw.gpu.PCIE_LATENCY`).
"""

from .. import units
from ..config import XEON_E5_2620, K40M
from ..errors import ConfigError
from .cpu import CpuSocket
from .gpu import GPU, CudaDriver
from .nic import RdmaNic


class Machine:
    """One server host."""

    def __init__(self, env, network, ip, config, cpu_profile=XEON_E5_2620,
                 nic_rate=units.gbps(40), rng_registry=None, name=None):
        self.env = env
        self.network = network
        self.ip = ip
        self.config = config
        self.name = name or "host-%s" % ip
        if rng_registry is None:
            raise ConfigError("machine requires an RNG registry")
        self.rng_registry = rng_registry
        self.socket = CpuSocket(
            env, cpu_profile, config.cache,
            rng_registry.stream("%s.llc" % self.name), name=self.name)
        self.nic = RdmaNic(env, network, ip, config.rdma,
                           link_rate=nic_rate, name="%s-nic" % self.name)
        self.driver = CudaDriver(env, name="%s-cuda" % self.name)
        self.gpus = []
        self.devices = {}

    # -- accelerators ---------------------------------------------------------

    def add_gpu(self, profile=K40M, name=None):
        """Install a GPU; returns it."""
        index = len(self.gpus)
        gpu_name = name or "%s-gpu%d" % (self.name, index)
        gpu = GPU(self.env, profile, self.driver, name=gpu_name, index=index)
        self.gpus.append(gpu)
        self.devices[gpu_name] = gpu
        return gpu

    def add_nic(self, ip, nic_rate=units.gbps(40)):
        """Install an additional NIC port (its own IP) on this host.

        Needed when several independent servers share the machine (the
        Fig 9 configuration runs memcached next to Lynx on one host).
        """
        index = len([d for d in self.devices if d.startswith("nic")]) + 1
        nic = RdmaNic(self.env, self.network, ip, self.config.rdma,
                      link_rate=nic_rate,
                      name="%s-nic%d" % (self.name, index))
        self.devices["nic%d" % index] = nic
        return nic

    def pool(self, count=None, name=None):
        """A worker pool over this machine's cores (shares the LLC)."""
        return self.socket.pool(count=count, name=name)

    def __repr__(self):
        return "<Machine %s ip=%s gpus=%d>" % (self.name, self.ip, len(self.gpus))
