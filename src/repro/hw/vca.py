"""Intel Visual Compute Accelerator (§5.4).

Three independent E3 nodes behind a PCIe switch, each running Linux
with its own IP, reachable from the host via IP-over-PCIe tunnelling.
Supports SGX enclaves.  Two network paths exist in the paper:

* the stock path — host network bridge, tunnelled through the host
  kernel stack (baseline in §6.2's VCA experiment);
* the Lynx path — mqueues polled by the node.  The paper could not
  enable RDMA directly into VCA memory (a suspected bug), so mqueues
  live in *host* memory mapped into the VCA; each access from the node
  pays a PCIe crossing.  We model the same workaround; the crossing is
  a fixed per-traversal latency (``IntelVCA.pcie_crossing``), not a
  contended hop.
"""

from ..errors import ConfigError
from .cpu import CorePool
from .memory import MemoryRegion, HOST_DRAM_LATENCY


class VcaNode:
    """One of the VCA's three E3 processors."""

    def __init__(self, env, vca, index, cache_profile, rng):
        self.env = env
        self.vca = vca
        self.index = index
        self.name = "%s-node%d" % (vca.name, index)
        self.pool = CorePool(env, vca.profile.cpu, count=1, llc=None,
                             name="%s-cpu" % self.name)
        self.enclave_calls = 0

    def enclave_call(self, compute_us):
        """Generator: enter the SGX enclave, compute, and exit.

        The transition cost covers the ecall/ocall pair; the compute
        itself runs on the node's core.
        """
        self.enclave_calls += 1
        yield self.env.timeout(self.vca.profile.enclave_transition)
        yield from self.pool.run_compute(compute_us)
        yield self.env.timeout(self.vca.profile.enclave_transition / 2)

    def mqueue_access_latency(self):
        """Latency of one mqueue access from this node.

        With the paper's workaround the ring lives in host memory, so
        every poll/enqueue crosses PCIe.
        """
        return (self.vca.pcie_crossing
                + self.vca.profile.mqueue_poll_overhead
                + self.vca.mqueue_memory.access_latency)


class VcaNodeAccelerator:
    """Adapter making a VCA node a first-class Lynx accelerator.

    The paper's §5.4 point is that integrating the VCA took "4 lines of
    code": the accelerator-facing contract is tiny.  This adapter is the
    explicit form of that contract — ``memory``, ``poll_latency`` and
    ``persistent_kernel`` — so ``LynxRuntime.start_gpu_service`` works
    on VCA nodes exactly as on GPUs.
    """

    def __init__(self, node):
        self.node = node
        self.name = "%s-accel" % node.name
        #: with the §5.4 workaround, mqueues live in host memory
        self.memory = node.vca.mqueue_memory
        self.profile = None  # no write barrier needed

    @property
    def poll_latency(self):
        return self.node.mqueue_access_latency()

    def scaled(self, duration):
        """App durations are E3-core microseconds (no rescaling)."""
        return duration

    def child_launch(self, duration, threadblocks=1):
        """VCA "kernels" are just enclave/CPU work on the node."""
        yield from self.node.pool.run_compute(duration)

    def persistent_kernel(self, count, body_factory, name=None):
        """Start *count* polling loops on the node (its serving threads)."""
        procs = []
        for index in range(count):
            procs.append(self.node.env.process(
                body_factory(index),
                name="%s-loop%d" % (name or self.name, index)))
        return procs


class IntelVCA:
    """The VCA board: three nodes on an internal PCIe switch."""

    #: one PCIe traversal between the host root complex and a node (us)
    pcie_crossing = 0.9

    def __init__(self, env, profile, cache_profile, rng, name="vca"):
        if profile.nodes < 1:
            raise ConfigError("VCA needs at least one node")
        self.env = env
        self.profile = profile
        self.name = name
        #: where mqueues actually live (host DRAM, per the workaround)
        self.mqueue_memory = MemoryRegion(
            "%s-mqueue-mem" % name, access_latency=HOST_DRAM_LATENCY)
        self.nodes = [VcaNode(env, self, i, cache_profile, rng)
                      for i in range(profile.nodes)]
