"""The GPU-centric server design (§3.3): GPUnet/GPUrdma-style.

The GPU runs the *entire* server, including a GPU-side networking
layer.  The paper credits this design with removing the CPU from the
request path, but identifies four costs, all modelled here:

1. the GPU-resident network stack occupies threadblocks that are then
   unavailable to application logic (``io_threadblocks``);
2. every message costs GPU time in the I/O layer (rx/tx processing on
   the I/O threadblocks);
3. a few host CPU helper cores are still required to drive the NIC on
   the GPU's behalf (doorbells, QP bookkeeping);
4. the transport is InfiniBand RDMA only — clients cannot connect with
   UDP/TCP (`RDMA_PROTO`); deploying behind a datacenter front-end is
   therefore restricted.

Lynx keeps the first three budgets near zero and adds UDP/TCP by moving
the server logic to the SNIC.
"""

from ..errors import ConfigError
from ..sim import Channel, RateMeter

#: the only transport GPU-side network stacks support (§3.3)
RDMA_PROTO = "rdma"

#: GPU time spent in the GPU-side network stack, per message direction
GPU_STACK_RX_US = 3.5
GPU_STACK_TX_US = 2.5
#: host helper-core CPU cost per message (NIC doorbells, QP refill)
HELPER_COST_US = 1.1


class GpuCentricServer:
    """A server running entirely on the GPU over RDMA transport."""

    def __init__(self, env, machine, gpu, app, port, app_threadblocks=200,
                 io_threadblocks=32, helper_cores=2):
        if app_threadblocks + io_threadblocks > gpu.profile.max_threadblocks:
            raise ConfigError(
                "app (%d) + I/O (%d) threadblocks exceed the GPU's %d"
                % (app_threadblocks, io_threadblocks,
                   gpu.profile.max_threadblocks))
        if io_threadblocks < 1:
            raise ConfigError("the GPU-side stack needs I/O threadblocks")
        self.env = env
        self.machine = machine
        self.gpu = gpu
        self.app = app
        self.port = port
        self.name = "gpucentric@%s" % machine.ip
        self.app_threadblocks = app_threadblocks
        self.io_threadblocks = io_threadblocks
        self.helpers = machine.pool(count=helper_cores,
                                    name="%s-helpers" % self.name)
        self.nic = machine.nic
        # one unified work ring for the GPU-side stack (rx + tx events);
        # both rings are Channels so traces and drop stats line up with
        # the Lynx data plane's
        self._work = Channel(env, capacity=4096, name="%s-work" % self.name)
        self._app_ring = Channel(env, capacity=4096,
                                 name="%s-app" % self.name)
        self.requests = RateMeter(env, name="%s-reqs" % self.name)
        self.responses = RateMeter(env, name="%s-resps" % self.name)
        self.dropped = 0
        # host helpers: NIC <-> GPU proxying (§3.3 point 3)
        for i in range(helper_cores):
            env.process(self._helper_loop(), name="%s-h%d" % (self.name, i))
        # the persistent GPU kernel: I/O blocks + application blocks
        gpu.persistent_kernel(io_threadblocks, self._io_block,
                              name="%s-io" % self.name)
        gpu.persistent_kernel(app_threadblocks, self._app_block,
                              name="%s-app" % self.name)

    # -- host helpers ------------------------------------------------------------

    def _helper_loop(self):
        while True:
            msg = yield self.nic.recv()
            if msg.proto != RDMA_PROTO:
                # §3.3: "do not support UDP/TCP, which significantly
                # restricts their use in data center systems".
                self.dropped += 1
                continue
            if msg.dst.port != self.port:
                self.dropped += 1
                continue
            yield from self.helpers.run_calibrated(HELPER_COST_US)
            if not self._work.try_put(("rx", msg)):
                self.dropped += 1

    # -- GPU-side network stack ----------------------------------------------------

    def _io_block(self, tb_index):
        env = self.env
        work = self._work
        app_ring = self._app_ring
        while True:
            kind, item = yield work.get()
            if kind == "rx":
                yield env.timeout(self.gpu.scaled(GPU_STACK_RX_US))
                self.requests.tick()
                yield app_ring.put(item)
            else:  # "tx": a response produced by an application block
                yield env.timeout(self.gpu.scaled(GPU_STACK_TX_US))
                yield from self.helpers.run_calibrated(HELPER_COST_US)
                self.responses.tick()
                self.nic.send_async(item)

    def _app_block(self, tb_index):
        env = self.env
        work = self._work
        app_ring = self._app_ring
        while True:
            msg = yield app_ring.get()
            result = self.app.compute(msg.payload)
            yield env.timeout(self.gpu.scaled(self.app.gpu_duration))
            response = msg.reply(result, created_at=env.now)
            yield work.put(("tx", response))
