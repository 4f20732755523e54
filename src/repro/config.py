"""Calibrated device and platform profiles.

Every timing constant in the simulator lives here, together with the
paper section or public spec it was calibrated from.  The evaluation
*results* (speedups, knees, crossovers) are never written down in this
file — they emerge from running the protocols with these primitive
costs.

Calibration sources (Lynx, ASPLOS'20):

* §3.2  echo microbenchmark: ~30us GPU management overhead per request.
* §5.1  Fig 5 discussion: cudaMemcpyAsync has a 7-8us fixed overhead;
  CPU-side RDMA post is <1us; the GPU consistency write barrier adds
  ~5us per message.
* §5.1.1 VMA kernel bypass cuts UDP latency 4x on Bluefield ARM cores
  and 2x on the host Xeon.
* §6.2  Innova AFU receives 7.4M 64B packets/s.
* §6.3  single-GPU LeNet peak is ~3.6K req/s (=> ~278us per inference);
  K80 peaks at 3.3K req/s (=> ~303us); remote GPUs add ~8us.
* Fig 8c knees: one Xeon core drives 74 GPUs x 3.5K req/s over UDP
  (=> ~3.9us/request total CPU cost) and 7 GPUs over TCP (=> ~41us);
  seven Bluefield ARM cores drive 102 GPUs over UDP and 15 over TCP.
* Fig 9: memcached does ~250 Ktps per Xeon core at ~15us p99; on
  Bluefield it peaks at ~400 Ktps at ~160us p99.
"""

from dataclasses import dataclass, field, replace

from . import units


# ---------------------------------------------------------------------------
# CPU
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CpuProfile:
    """A CPU core type.

    ``speed_factor`` scales *compute-bound* work relative to one Xeon
    E5-2620v2 core (1.0).  Network-stack costs are NOT derived from it —
    they are calibrated separately per platform (see StackProfile),
    because the paper shows the ARM/Xeon gap differs between compute and
    I/O paths.
    """

    name: str
    cores: int
    speed_factor: float
    #: bytes of last-level cache shared by all cores of the socket
    llc_bytes: int = 15 * units.MB


#: Host CPU in all paper testbeds (Xeon E5-2620 v2: 6 cores, 15MB LLC).
XEON_E5_2620 = CpuProfile(name="xeon-e5-2620v2", cores=6, speed_factor=1.0,
                          llc_bytes=15 * units.MB)

#: Bluefield's 8x ARM A72 @ 800MHz.  One core is reserved for the OS in
#: the paper's experiments (they use 7 of 8).  Compute speed per core is
#: roughly a third of the Xeon's.
BLUEFIELD_ARM = CpuProfile(name="bluefield-arm-a72", cores=8, speed_factor=0.33,
                           llc_bytes=1 * units.MB)

#: Intel VCA: each of the three nodes is an Intel E3 (we model one core
#: per node for the serving path).
VCA_E3 = CpuProfile(name="vca-e3", cores=4, speed_factor=0.85,
                    llc_bytes=8 * units.MB)


# ---------------------------------------------------------------------------
# Network stacks (per-message CPU costs, in us on the *owning* platform)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StackProfile:
    """Per-message network stack processing costs for one platform.

    ``rx``/``tx`` costs are charged on a core of the platform running
    the stack.  ``fixed`` components are per message; ``per_byte``
    components scale with payload size.
    """

    name: str
    udp_rx_fixed: float
    udp_tx_fixed: float
    udp_per_byte: float
    tcp_rx_fixed: float
    tcp_tx_fixed: float
    tcp_per_byte: float
    #: cost of establishing a TCP connection (handshake CPU work)
    tcp_connect_cost: float = 15.0


# One Xeon core drives ~259K LeNet req/s over UDP (Fig 8c) => the whole
# Lynx loop costs ~3.9us; the stack share of that budget is below.  The
# TCP knee (7 GPUs => ~41us/req) calibrates the TCP costs.
XEON_VMA = StackProfile(
    name="xeon-vma",
    udp_rx_fixed=1.30, udp_tx_fixed=0.80, udp_per_byte=0.0006,
    tcp_rx_fixed=24.0, tcp_tx_fixed=11.0, tcp_per_byte=0.0020,
)

#: §5.1.1: the kernel stack doubles UDP latency on the host.
XEON_KERNEL = StackProfile(
    name="xeon-kernel",
    udp_rx_fixed=2.60, udp_tx_fixed=1.60, udp_per_byte=0.0012,
    tcp_rx_fixed=48.0, tcp_tx_fixed=22.0, tcp_per_byte=0.0040,
)

# Seven ARM cores drive ~357K LeNet req/s over UDP (Fig 8c) => ~19.6us
# per request per core; 64B-message experiments (Fig 6) imply a lower
# fixed cost with a significant per-byte component.
ARM_VMA = StackProfile(
    name="bluefield-vma",
    udp_rx_fixed=8.90, udp_tx_fixed=1.40, udp_per_byte=0.0106,
    tcp_rx_fixed=78.0, tcp_tx_fixed=34.0, tcp_per_byte=0.0180,
    tcp_connect_cost=60.0,
)

#: §5.1.1: VMA cuts minimum-size UDP processing latency 4x on Bluefield.
ARM_KERNEL = StackProfile(
    name="bluefield-kernel",
    udp_rx_fixed=35.6, udp_tx_fixed=5.6, udp_per_byte=0.0424,
    tcp_rx_fixed=312.0, tcp_tx_fixed=136.0, tcp_per_byte=0.0720,
    tcp_connect_cost=240.0,
)

#: VCA node runs a plain Linux kernel stack over the host IP bridge.
VCA_KERNEL = StackProfile(
    name="vca-kernel",
    udp_rx_fixed=4.0, udp_tx_fixed=2.5, udp_per_byte=0.0015,
    tcp_rx_fixed=55.0, tcp_tx_fixed=26.0, tcp_per_byte=0.0045,
)


# ---------------------------------------------------------------------------
# RDMA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RdmaProfile:
    """One-sided RDMA engine characteristics (ConnectX-4/5 class)."""

    name: str = "connectx"
    #: CPU cost of posting a work request (§5.1: "<1us to invoke").
    post_cost: float = 0.4
    #: engine fixed latency per one-sided op to a PCIe-local peer
    op_latency: float = 1.6
    #: engine bandwidth for payload movement
    bandwidth: float = units.gbps(40)
    #: extra one-way latency when the peer is behind another NIC/switch.
    #: A remote request crosses it 5x (delivery write, doorbell-
    #: detection read x2, payload fetch x2), and §6.3 reports ~8us total
    #: per request for remote GPUs => ~1.6us per crossing.
    remote_extra_latency: float = 1.6
    #: §5.1: consistency write barrier (RDMA read fence) per message.
    barrier_latency: float = 5.0


DEFAULT_RDMA = RdmaProfile()


# ---------------------------------------------------------------------------
# GPU
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GpuProfile:
    """An NVIDIA GPU device model."""

    name: str
    #: max concurrently resident threadblocks (K40m: 15 SMs x 16 = 240)
    max_threadblocks: int = 240
    #: host-side driver CPU cost per operation (launch/copy/sync); these
    #: serialized driver interactions are the §3.2 bottleneck.
    driver_op_cost: float = 8.0
    #: device-side latency from launch command to kernel start
    launch_latency: float = 7.0
    #: fixed cost of cudaMemcpyAsync (§5.1: 7-8us) on top of DMA time
    memcpy_fixed: float = 7.5
    #: synchronization/completion detection cost (stream sync / event)
    sync_latency: float = 4.0
    #: device-side (dynamic parallelism) child kernel launch latency
    device_launch_latency: float = 6.0
    #: CPU burnt polling stream completion per request; overlaps the
    #: kernel (a spinning cudaStreamSynchronize costs core time but not
    #: single-request latency)
    sync_poll_cost: float = 14.0
    #: local memory access latency seen by a polling threadblock
    local_poll_latency: float = 0.6
    #: DMA engine bandwidth for H2D/D2H copies
    copy_bandwidth: float = units.gbytes_per_sec(10.0)
    #: relative compute speed (K40m = 1.0; K80 die is slower)
    speed_factor: float = 1.0
    #: whether the PCIe-ordering consistency workaround is required
    needs_write_barrier: bool = False


K40M = GpuProfile(name="k40m", speed_factor=1.0)
#: Fig 8b footnote: "Tesla K80 is slower than K40m, 3300 req/s at most".
K80 = GpuProfile(name="k80", speed_factor=278.0 / 303.0)


# ---------------------------------------------------------------------------
# SmartNICs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BluefieldProfile:
    """Mellanox Bluefield: 8 ARM cores + ConnectX NIC ASIC (Fig 2b)."""

    name: str = "bluefield"
    cpu: CpuProfile = BLUEFIELD_ARM
    stack: StackProfile = ARM_VMA
    rdma: RdmaProfile = DEFAULT_RDMA
    #: cores available to Lynx (§6.1: "we use 7 ARM cores out of 8")
    worker_cores: int = 7
    link_rate: float = units.gbps(25)


@dataclass(frozen=True)
class InnovaProfile:
    """Mellanox Innova Flex: bump-in-the-wire FPGA AFU (Fig 2a, §5.2).

    §5.2 describes two configurations, and ``projected`` picks one.  The
    paper's prototype (``projected=False``) implements the receive path
    only and needs a host CPU helper thread per custom ring (UC queue
    pair); both limitations are part of the model.  The projected full
    AFU (``projected=True``) drives its rings over one-sided RDMA (RC,
    no helper) and also sends responses.
    """

    name: str = "innova"
    #: sustained AFU message rate (§6.2: 7.4M 64B packets/s)
    afu_rate_pps: float = units.mpps(7.4)
    #: cut-through pipeline latency through the AFU UDP stack
    pipeline_latency: float = 2.0
    rdma: RdmaProfile = DEFAULT_RDMA
    link_rate: float = units.gbps(40)
    projected: bool = False


#: §5.2's projected full Innova (``projected=True``): custom rings over
#: one-sided RDMA (no CPU helper) and a transmit path in the AFU.
INNOVA_PROJECTED = InnovaProfile(name="innova-projected", projected=True)


@dataclass(frozen=True)
class VcaProfile:
    """Intel Visual Compute Accelerator (§5.4): 3 E3 nodes on PCIe."""

    name: str = "vca"
    nodes: int = 3
    cpu: CpuProfile = VCA_E3
    stack: StackProfile = VCA_KERNEL
    #: SGX enclave transition cost (ecall+ocall round trip)
    enclave_transition: float = 8.0
    #: extra per-message latency of the host network bridge (IP-over-
    #: PCIe tunnelling through the host kernel: virtio queues, softirq
    #: and bridge forwarding — the "Intel preferred way")
    bridge_latency: float = 62.0
    #: mean doorbell-detection lag of the node's poll loop over the
    #: mapped (uncached) host memory
    mqueue_poll_overhead: float = 6.0


# ---------------------------------------------------------------------------
# Lynx runtime costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LynxProfile:
    """Costs of Lynx's own SNIC-side logic (platform-independent parts
    are charged on the platform's cores and therefore scale with the
    stack profile chosen)."""

    #: dispatcher work per message (policy lookup + WQE build)
    dispatch_cost: float = 0.35
    #: forwarder work per message (metadata parse + route lookup)
    forward_cost: float = 0.45
    #: cost to visit one mqueue during a TX doorbell sweep
    mqueue_visit_cost: float = 0.035
    #: minimum interval between TX sweeps of one accelerator's rings
    sweep_interval: float = 1.0
    #: mqueue entries per ring
    ring_entries: int = 64
    #: 4-byte metadata coalescing enabled (§5.1)
    coalesce_metadata: bool = True
    #: backend-response deadline for client mqueues; on expiry the SNIC
    #: delivers an entry with the error flag set (§5.1: the metadata
    #: carries "error status from the Bluefield if a connection error
    #: is detected"), so accelerator code never blocks forever
    backend_timeout: float = 10000.0


DEFAULT_LYNX = LynxProfile()


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppTimings:
    """GPU/CPU durations of the paper's application kernels."""

    #: LeNet inference on K40m (§6.3: 3.6 Kreq/s single-GPU max)
    lenet_gpu: float = 278.0
    #: LBP face verification kernel (§6.4: "about 50us")
    facever_gpu: float = 50.0
    #: memcached service cost (on top of stack costs) per op on one
    #: Xeon core; stack + op total ~4us => 250 Ktps/core (Fig 9)
    memcached_op_xeon: float = 1.7
    #: per-ARM-core service cost: with the ARM stack costs the total is
    #: ~17.5us/op/core => ~400 Ktps across 7 cores (Fig 9)
    memcached_op_arm: float = 7.5
    #: AES-128 block encrypt/decrypt inside the SGX enclave
    sgx_aes_block: float = 1.5


DEFAULT_APP_TIMINGS = AppTimings()


# ---------------------------------------------------------------------------
# Noisy neighbour / LLC interference (§3.2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheProfile:
    """Shared-LLC interference model.

    When the combined working set of co-running tasks exceeds the LLC,
    memory-intensive tasks suffer a multiplicative, heavy-tailed
    slowdown.  Calibrated so the §3.2 experiment reproduces a ~13x p99
    latency inflation for the victim server and ~21% slowdown for the
    matmul aggressor.
    """

    #: mean slowdown applied to fully memory-bound work under full
    #: contention (both tasks thrash the LLC)
    mean_slowdown: float = 6.0
    #: lognormal sigma of the jitter (drives the p99 tail)
    jitter_sigma: float = 2.3
    #: slowdown of the aggressor itself (it loses cache too)
    aggressor_slowdown: float = 1.21


DEFAULT_CACHE = CacheProfile()


# ---------------------------------------------------------------------------
# Top-level experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Root configuration: seeds and profile bundle used by testbeds."""

    seed: int = 42
    lynx: LynxProfile = DEFAULT_LYNX
    rdma: RdmaProfile = DEFAULT_RDMA
    cache: CacheProfile = DEFAULT_CACHE
    trace: bool = False

    def with_(self, **kwargs):
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = SimConfig()
