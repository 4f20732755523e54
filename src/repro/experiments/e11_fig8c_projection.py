"""E11 — Figure 8c: multi-GPU scalability projection.

How many LeNet GPUs can one Lynx instance drive?  Following the paper's
methodology, request processing is *emulated*: each "GPU" runs a
single-thread kernel blocking for the LeNet duration behind its own
mqueue, and GPUs are added until the SNIC/CPU saturates.  Paper knees:

    UDP: ~102 GPUs on Bluefield, ~74 on one Xeon core
    TCP: ~15 GPUs on Bluefield,  ~7 on one Xeon core

(The paper validates the emulation against the 12 real GPUs of E10.)
"""

from ..apps.base import SpinApp
from ..config import DEFAULT_APP_TIMINGS, K40M
from ..net import Address, ClosedLoopGenerator
from ..net.packet import TCP, UDP
from .base import ExperimentResult, krps
from .sweep import Point, run_points
from .testbed import Testbed

PAPER_KNEES = {
    ("bluefield", "udp"): 102,
    ("xeon", "udp"): 74,
    ("bluefield", "tcp"): 15,
    ("xeon", "tcp"): 7,
}

UDP_POINTS = (1, 15, 30, 45, 60, 75, 90, 105, 120)
TCP_POINTS = (1, 3, 5, 7, 9, 12, 15, 18, 22)
UDP_POINTS_FAST = (30, 75, 105)
TCP_POINTS_FAST = (5, 10, 16)

PER_GPU_KRPS = 3.5  # one emulated LeNet GPU's peak


def measure_point(platform, proto, n_gpus, seed=42, measure_us=60000.0):
    """Delivered throughput with *n_gpus* emulated GPUs attached."""
    tb = Testbed(seed=seed)
    env = tb.env
    host = tb.machine("10.0.0.1")
    if platform == "bluefield":
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        address = Address("10.0.0.100", 7777)
    else:
        runtime, server = tb.lynx_on_host(host, cores=1)
        address = Address("10.0.0.1", 7777)
    app = SpinApp(DEFAULT_APP_TIMINGS.lenet_gpu)
    for _ in range(n_gpus):
        gpu = host.add_gpu(K40M)
        env.process(runtime.start_gpu_service(gpu, app, port=7777,
                                              n_mqueues=1, proto=proto))
    env.run(until=1000)
    clients = [tb.client("10.0.9.%d" % i) for i in (1, 2)]
    payload = b"x" * 784
    for client in clients:
        ClosedLoopGenerator(env, client, address,
                            concurrency=max(2, n_gpus),
                            payload_fn=lambda i: payload, proto=proto,
                            timeout=100000)
    meters = [c.responses for c in clients]
    tb.warmup_then_measure(meters, 30000.0, measure_us)
    return sum(m.per_sec() for m in meters)


def knee_from_series(rates, per_gpu_rate):
    """The saturation plateau (the highest measured rate) expressed in
    GPUs: ``max(rates) / per_gpu_rate``, the GPU count one server core
    keeps busy."""
    return max(rates) / per_gpu_rate


def _grid(fast):
    udp_points = UDP_POINTS_FAST if fast else UDP_POINTS
    tcp_points = TCP_POINTS_FAST if fast else TCP_POINTS
    return [(platform, proto, gpu_counts)
            for platform in ("xeon", "bluefield")
            for proto, gpu_counts in (("udp", udp_points),
                                      ("tcp", tcp_points))]


def sweep_points(fast=True, seed=42, measure_us=None):
    """One point per (platform, proto, emulated GPU count)."""
    if measure_us is None:
        measure_us = 50000.0 if fast else 150000.0
    return [Point(("E11", platform, proto, n_gpus), measure_point,
                  dict(platform=platform, proto=proto, n_gpus=n_gpus,
                       measure_us=measure_us),
                  root_seed=seed)
            for platform, proto, gpu_counts in _grid(fast)
            for n_gpus in gpu_counts]


def run(fast=True, seed=42, measure_us=None, jobs=None):
    """Run this experiment; see the module docstring for the paper context."""
    result = ExperimentResult(
        "E11", "Multi-GPU scalability projection (emulated LeNet GPUs)",
        "Fig 8c")
    points = sweep_points(fast, seed, measure_us=measure_us)
    values = dict(zip((p.key for p in points), run_points(points, jobs=jobs)))
    for platform, proto, gpu_counts in _grid(fast):
        rates = []
        for n_gpus in gpu_counts:
            rate = values[("E11", platform, proto, n_gpus)]
            rates.append(rate)
            result.add(platform=platform, proto=proto, gpus=n_gpus,
                       krps=krps(rate),
                       linear_krps=round(PER_GPU_KRPS * n_gpus, 1),
                       knee_estimate=None,
                       paper_knee=None)
        knee = knee_from_series(rates, PER_GPU_KRPS * 1000)
        result.add(platform=platform, proto=proto, gpus="knee",
                   krps=None, linear_krps=None,
                   knee_estimate=round(knee, 1),
                   paper_knee=PAPER_KNEES[(platform, proto)])
    result.note("paper knees: UDP 102 (BF) / 74 (Xeon core); "
                "TCP 15 (BF) / 7 (Xeon core)")
    return result
