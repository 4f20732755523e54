"""GPU device model.

Captures exactly the GPU behaviours the paper's results depend on:

* host-side driver interactions (launch / copy / sync) are serialized
  through a per-host driver lock and cost CPU time — the §3.2 bottleneck
  ("we run on one CPU core because more threads result in a slowdown
  due to an NVIDIA driver bottleneck");
* kernels occupy SM slots; at most ``max_threadblocks`` threadblocks are
  resident (240 on K40m);
* persistent kernels hold their slots forever and poll device memory;
* dynamic parallelism launches child kernels from the device, cheaper
  than a host launch (used by the LeNet server, §6.3);
* DMA copies pay a fixed cudaMemcpyAsync overhead plus bandwidth time
  (§5.1: 7-8us fixed) plus one PCIe traversal, a fixed latency: PCIe
  links are not modelled as contended hops.
"""

from ..errors import AcceleratorError
from ..sim import Resource
from .. import telemetry
from .memory import MemoryRegion, GPU_GDDR_LATENCY

#: latency (us) of one PCIe traversal, added to every DMA copy
PCIE_LATENCY = 0.5


class CudaDriver:
    """Host-side driver state shared by all GPUs of one machine.

    Concurrent callers do not just queue on the lock: contended driver
    entry costs *more* per call (cacheline bouncing, futex wakeups,
    context revalidation), which is why the paper's baseline runs on a
    single core — "more threads result in a slowdown due to an NVIDIA
    driver bottleneck" (§6.1).
    """

    #: extra fractional cost per additional CPU thread sharing the lock
    CONTENTION_FACTOR = 0.35

    def __init__(self, env, name="cuda-driver"):
        self.env = env
        self.name = name
        self._lock = Resource(env, 1, name=name)
        self.ops = 0
        self.contended_ops = 0

    def op(self, pool, cost):
        """Generator: a driver call costing *cost* CPU us under the lock.

        The cost grows with the number of CPU threads (cores of the
        calling pool) sharing the driver: lock bouncing and context
        revalidation make multi-threaded CUDA dispatch *slower*, not
        faster — the §6.1 driver bottleneck.
        """
        threads = pool.count
        req = self._lock.request()
        try:
            yield req
            self.ops += 1
            if threads > 1:
                self.contended_ops += 1
                cost *= 1.0 + self.CONTENTION_FACTOR * min(threads - 1, 8)
            yield from pool.run_calibrated(cost)
        finally:
            req.release()


class GPU:
    """One GPU board."""

    def __init__(self, env, profile, driver, name=None, index=0):
        self.env = env
        self.profile = profile
        self.driver = driver
        self.index = index
        self.name = name or "%s-%d" % (profile.name, index)
        self.memory = MemoryRegion("%s-mem" % self.name,
                                   access_latency=GPU_GDDR_LATENCY)
        self.sm_slots = Resource(env, profile.max_threadblocks,
                                 name="%s-sm" % self.name)
        #: grid-sized kernels (enough threadblocks to fill the device)
        #: serialize against each other here
        self._exclusive = Resource(env, 1, name="%s-excl" % self.name)
        self._copy_engine = Resource(env, 1, name="%s-dma" % self.name)
        self.kernels_launched = 0
        # Telemetry (DESIGN.md §4.9): SM-slot utilization (maintained
        # inline by the Resource) is the device occupancy; launches are
        # pulled from the plain counter at snapshot time.
        reg = telemetry.registry()
        base = "gpu.%s." % self.name
        reg.register(base + "occupancy", self.sm_slots.utilization)
        reg.pull(base + "kernels", lambda: self.kernels_launched)

    # -- data movement ---------------------------------------------------------

    def dma_transfer(self, nbytes):
        """Generator: one DMA copy over PCIe (either direction)."""
        with self._copy_engine.request() as req:
            yield req
            yield self.env.timeout(nbytes / self.profile.copy_bandwidth
                                   + PCIE_LATENCY)

    def memcpy_async(self, pool, nbytes):
        """Generator: full cudaMemcpyAsync — driver call + DMA."""
        yield from self.driver.op(pool, self.profile.memcpy_fixed)
        yield from self.dma_transfer(nbytes)

    # -- kernels -----------------------------------------------------------------

    def scaled(self, duration):
        """Scale a K40m-calibrated kernel duration to this device."""
        return duration / self.profile.speed_factor

    def launch_kernel(self, pool, duration, threadblocks=1,
                      exclusive=False):
        """Generator: host-side launch + device execution + completion.

        Charges the driver call on *pool*, waits launch latency, runs
        *threadblocks* concurrent blocks for *duration*, then pays the
        synchronization/completion latency.  ``exclusive`` marks a
        grid-sized kernel (enough blocks to fill the GPU, e.g. the
        TVM-generated LeNet layers): such kernels serialize against
        each other instead of taking SM slots.
        """
        yield from self.driver.op(pool, self.profile.driver_op_cost)
        if exclusive:
            with self._exclusive.request() as req:
                yield req
                yield self.env.timeout(self.profile.launch_latency
                                       + self.scaled(duration))
            self.kernels_launched += 1
        else:
            yield from self._execute(duration, threadblocks)
        yield self.env.timeout(self.profile.sync_latency)

    def run_kernel_chain(self, pool, durations):
        """Generator: a default-stream kernel chain (TVM-executor style).

        The whole chain holds the device: per-layer launches, their
        driver calls and per-layer syncs serialize on the default
        stream, so concurrent requests cannot interleave — the reason
        the paper's host-centric LeNet lands *below* the serial
        single-GPU maximum (2.8K vs 3.6K req/s, §6.3).
        """
        with self._exclusive.request() as req:
            yield req
            for duration in durations:
                yield from self.driver.op(pool, self.profile.driver_op_cost)
                yield self.env.timeout(self.profile.launch_latency
                                       + self.scaled(duration))
                yield self.env.timeout(self.profile.sync_latency)
                self.kernels_launched += 1

    def child_launch(self, duration, threadblocks=1):
        """Generator: dynamic-parallelism launch from device code."""
        yield self.env.timeout(self.profile.device_launch_latency)
        yield from self._run_blocks(duration, threadblocks)

    def _execute(self, duration, threadblocks):
        yield self.env.timeout(self.profile.launch_latency)
        yield from self._run_blocks(duration, threadblocks)

    def _run_blocks(self, duration, threadblocks):
        if threadblocks < 1:
            raise AcceleratorError("kernel needs at least one threadblock")
        requests = [self.sm_slots.request() for _ in range(threadblocks)]
        for req in requests:
            yield req
        self.kernels_launched += 1
        try:
            yield self.env.timeout(self.scaled(duration))
        finally:
            for req in requests:
                req.release()

    # -- persistent kernels -------------------------------------------------------

    def persistent_kernel(self, threadblocks, body_factory, name=None):
        """Start a persistent kernel of *threadblocks* blocks.

        ``body_factory(tb_index)`` must return a generator implementing
        that threadblock's loop; each holds one SM slot for the lifetime
        of the simulation (this is how Lynx emulates hardware
        accelerators on GPUs, §5.1).

        Returns the list of threadblock processes.
        """
        if threadblocks > self.profile.max_threadblocks:
            raise AcceleratorError(
                "%s supports at most %d resident threadblocks, asked for %d"
                % (self.name, self.profile.max_threadblocks, threadblocks))
        kernel_name = name or "%s-persistent" % self.name
        procs = []
        for tb in range(threadblocks):
            procs.append(self.env.process(
                self._persistent_block(tb, body_factory),
                name="%s-tb%d" % (kernel_name, tb)))
        self.kernels_launched += 1
        return procs

    def _persistent_block(self, tb_index, body_factory):
        req = self.sm_slots.request()
        yield req
        yield from body_factory(tb_index)

    @property
    def poll_latency(self):
        """Local-memory polling latency of a waiting threadblock."""
        return self.profile.local_poll_latency
