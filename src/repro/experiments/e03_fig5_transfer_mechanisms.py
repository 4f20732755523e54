"""E03 — Figure 5: data-transfer mechanisms for managing mqueues.

The paper compares CPU-side mechanisms for accessing an mqueue in GPU
memory, running a single-threadblock GPU echo server and measuring
end-to-end throughput for payloads of 20..1416 bytes.  Mechanism pairs
(data path : control path):

  1. cudaMemcpyAsync : cudaMemcpyAsync   (baseline, speedup 1.0)
  2. cudaMemcpyAsync : gdrcopy
  3. RDMA            : gdrcopy
  4. RDMA            : RDMA              (with metadata coalescing)

Mechanism cost model (per §5.1): cudaMemcpyAsync pays a 7-8us fixed
driver cost per call; gdrcopy is a blocking CPU store/load through the
PCIe BAR (reads are much slower than writes); one-sided RDMA costs
<1us to post and ~2us to complete.  The GPU side is the paper's 1-thread
echo kernel, whose byte-by-byte copy time caps large-payload gains.
"""

from ..config import K40M
from ..sim import Channel
from .base import ExperimentResult
from .sweep import Point, run_points
from .testbed import Testbed

PAYLOAD_SIZES = (20, 116, 516, 1016, 1416)
COMBOS = (
    ("cuda", "cuda"),
    ("cuda", "gdr"),
    ("rdma", "gdr"),
    ("rdma", "rdma"),
)

#: CPU BAR store/load bandwidths (bytes/us): writes combine, reads stall
GDR_WRITE_BW = 900.0
GDR_READ_BW = 350.0
GDR_WRITE_FIXED = 0.35
GDR_READ_FIXED = 0.5
#: a single GPU thread copies ~100 MB/s (0.01 us/byte)
GPU_THREAD_COPY_US_PER_BYTE = 0.01
CONTROL_BYTES = 4


class _Mechanisms:
    """The three access mechanisms, bound to one testbed's devices."""

    def __init__(self, env, pool, gpu, engine, qp):
        self.env = env
        self.pool = pool
        self.gpu = gpu
        self.engine = engine
        self.qp = qp

    def write(self, mech, nbytes):
        if mech == "cuda":
            yield from self.gpu.memcpy_async(self.pool, nbytes)
        elif mech == "gdr":
            yield from self.pool.run_calibrated(
                GDR_WRITE_FIXED + nbytes / GDR_WRITE_BW)
        else:
            yield from self.pool.run_calibrated(self.engine.profile.post_cost)
            yield from self.engine.write(self.qp, nbytes)

    def read(self, mech, nbytes):
        if mech == "cuda":
            yield from self.gpu.memcpy_async(self.pool, nbytes)
        elif mech == "gdr":
            yield from self.pool.run_calibrated(
                GDR_READ_FIXED + nbytes / GDR_READ_BW)
        else:
            yield from self.pool.run_calibrated(self.engine.profile.post_cost)
            yield from self.engine.read(self.qp, nbytes)


def throughput(data_mech, ctrl_mech, payload_bytes, seed=42,
               measure=30000.0, ring_depth=16):
    """Sustained echo throughput (req/s) for one mechanism pair."""
    tb = Testbed(seed=seed)
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu(K40M)
    pool = host.pool(count=1, name="mq-manager")
    qp = host.nic.rdma.connect(gpu.memory)
    mech = _Mechanisms(env, pool, gpu, host.nic.rdma, qp)
    coalesce = data_mech == "rdma" and ctrl_mech == "rdma"

    rx_ring = Channel(env, name="e03-rx", capacity=ring_depth)
    tx_ring = Channel(env, name="e03-tx", capacity=ring_depth)
    tokens = Channel(env, name="e03-credits", capacity=ring_depth)
    done = [0]
    for _ in range(ring_depth):
        tokens.try_put(None)

    def ingress(env):
        while True:
            yield tokens.get()
            if coalesce:
                # §5.1: metadata appended to the payload, one RDMA write.
                yield from mech.write(data_mech,
                                      payload_bytes + CONTROL_BYTES)
            else:
                yield from mech.write(data_mech, payload_bytes)
                yield from mech.write(ctrl_mech, CONTROL_BYTES)
            yield rx_ring.put(payload_bytes)

    def gpu_echo(env):
        # the paper's kernel: one GPU thread copies input to output
        while True:
            nbytes = yield rx_ring.get()
            yield env.timeout(gpu.poll_latency
                              + nbytes * GPU_THREAD_COPY_US_PER_BYTE)
            yield tx_ring.put(nbytes)

    def egress(env):
        while True:
            nbytes = yield tx_ring.get()
            if coalesce:
                # Full-RDMA path: one read returns doorbell + payload.
                yield from mech.read(data_mech, nbytes + CONTROL_BYTES)
            else:
                if ctrl_mech == "gdr":
                    # gdrcopy maps the flag and busy-polls it over the
                    # BAR: detection costs an extra read on average.
                    yield from mech.read(ctrl_mech, CONTROL_BYTES)
                yield from mech.read(ctrl_mech, CONTROL_BYTES)
                yield from mech.read(data_mech, nbytes)
            done[0] += 1
            yield tokens.put(None)

    env.process(ingress(env), name="ingress")
    env.process(gpu_echo(env), name="gpu-echo")
    env.process(egress(env), name="egress")
    env.run(until=5000)  # warmup
    start_count, start_time = done[0], env.now
    env.run(until=env.now + measure)
    return (done[0] - start_count) / (env.now - start_time) * 1e6


def sweep_points(fast=True, seed=42, measure=None):
    """One point per (payload size, mechanism pair) echo measurement."""
    sizes = (20, 516, 1416) if fast else PAYLOAD_SIZES
    if measure is None:
        measure = 20000.0 if fast else 60000.0
    return [Point(("E03", data_mech, ctrl_mech, size), throughput,
                  dict(data_mech=data_mech, ctrl_mech=ctrl_mech,
                       payload_bytes=size, measure=measure),
                  root_seed=seed)
            for size in sizes
            for data_mech, ctrl_mech in COMBOS]


def run(fast=True, seed=42, measure=None, jobs=None):
    """Run this experiment; see the module docstring for the paper context."""
    result = ExperimentResult(
        "E03", "mqueue access mechanisms (speedup vs cudaMemcpyAsync)",
        "Fig 5")
    sizes = (20, 516, 1416) if fast else PAYLOAD_SIZES
    points = sweep_points(fast, seed, measure=measure)
    values = dict(zip((p.key for p in points), run_points(points, jobs=jobs)))
    for size in sizes:
        rates = {(dm, cm): values[("E03", dm, cm, size)]
                 for dm, cm in COMBOS}
        base = rates[("cuda", "cuda")]
        result.add(payload=size,
                   cuda_cuda=1.0,
                   cuda_gdr=round(rates[("cuda", "gdr")] / base, 2),
                   rdma_gdr=round(rates[("rdma", "gdr")] / base, 2),
                   rdma_rdma=round(rates[("rdma", "rdma")] / base, 2),
                   base_krps=round(base / 1000, 1))
    result.note("paper: RDMA fastest, ~5x at small payloads, gap narrows "
                "with size; cudaMemcpy fixed cost dominates small transfers")
    return result
