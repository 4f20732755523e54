"""E09 — §6.3 + Figure 8a: LeNet inference service.

MNIST-sized (784B) UDP requests served by LeNet on one K40m, at
saturation.  Paper: Lynx reaches 3.5 Kreq/s on both Bluefield and a
Xeon core (25% over the 2.8 Kreq/s host-centric baseline, within 3% of
the 3.6 Kreq/s single-GPU maximum); p90 latency 295-300us vs ~14%
slower host-centric.  Over TCP, throughput drops ~10% on Bluefield and
~5% on Xeon.
"""

from ..apps.lenet import LeNetApp, MnistStream
from ..net.packet import TCP, UDP
from .base import ExperimentResult, krps
from .common import (
    HOST_CENTRIC,
    LYNX_BLUEFIELD,
    LYNX_XEON_1,
    deploy,
    measure_closed_loop,
)
from .sweep import Point, run_points

PAPER = {
    (HOST_CENTRIC, "udp"): 2.8,
    (LYNX_BLUEFIELD, "udp"): 3.5,
    (LYNX_XEON_1, "udp"): 3.5,
    (LYNX_BLUEFIELD, "tcp"): 3.1,
    (LYNX_XEON_1, "tcp"): 3.3,
}
PAPER_P90 = {
    (HOST_CENTRIC, "udp"): 340.0,  # "14% slower" than ~298us
    (LYNX_BLUEFIELD, "udp"): 300.0,
    (LYNX_XEON_1, "udp"): 295.0,
    (LYNX_BLUEFIELD, "tcp"): 346.0,
    (LYNX_XEON_1, "tcp"): 322.0,
}
SINGLE_GPU_MAX_KRPS = 3.6


def measure(design, proto, seed=42, measure_us=200000.0,
            compute_for_real=False, concurrency=3):
    """Saturation throughput (closed loop) for one design."""
    app = LeNetApp(compute_for_real=compute_for_real)
    dep = deploy(design, app=app, n_mqueues=1, proto=proto, seed=seed)
    stream = MnistStream(seed=seed)
    tput, latency = measure_closed_loop(
        dep, lambda i: stream.sample(i)[0], concurrency=concurrency,
        proto=proto, warmup=50000.0, measure=measure_us)
    return tput, latency


def measure_latency_at_load(design, proto, offered_per_sec, seed=42,
                            measure_us=200000.0):
    """Latency under paced (sockperf-style uniform) open-loop load."""
    from ..net import OpenLoopGenerator

    app = LeNetApp(compute_for_real=False)
    dep = deploy(design, app=app, n_mqueues=1, proto=proto, seed=seed)
    stream = MnistStream(seed=seed)
    client = dep.tb.client("10.0.9.1")
    conn = None
    if proto == TCP:
        proc = dep.env.process(client.connect(dep.address))
        dep.env.run(until=dep.env.now + 2000)
        conn = proc.value
    OpenLoopGenerator(dep.env, client, dep.address, offered_per_sec / 1e6,
                      lambda i: stream.sample(i)[0], proto=proto, conn=conn,
                      poisson=False)
    dep.tb.warmup_then_measure([client.latency], 50000.0, measure_us)
    return client.latency


def _tput_point(design, proto, measure_us, seed=42):
    """Sweep builder: saturation throughput only (picklable result)."""
    tput, _ = measure(design, proto, seed, measure_us)
    return tput


def _latency_point(design, proto, offered_per_sec, measure_us, seed=42):
    """Sweep builder: (p50, p90) under paced open-loop load."""
    latency = measure_latency_at_load(design, proto, offered_per_sec, seed,
                                      measure_us)
    return latency.p50(), latency.p90()


def _configs(fast):
    configs = [(HOST_CENTRIC, UDP), (LYNX_XEON_1, UDP),
               (LYNX_BLUEFIELD, UDP)]
    if not fast:
        configs += [(LYNX_XEON_1, TCP), (LYNX_BLUEFIELD, TCP)]
    return configs


def run(fast=True, seed=42, measure_us=None, jobs=None):
    """Run this experiment; see the module docstring for the paper context."""
    result = ExperimentResult(
        "E09", "LeNet inference service: throughput and latency",
        "Fig 8a + §6.3")
    if measure_us is None:
        measure_us = 150000.0 if fast else 600000.0
    configs = _configs(fast)
    # Two sweep stages: the paced-load latency points depend on the
    # measured saturation throughput of the same (design, proto).
    tput_points = [Point(("E09", "tput", design, proto), _tput_point,
                         dict(design=design, proto=proto,
                              measure_us=measure_us),
                         root_seed=seed)
                   for design, proto in configs]
    tputs = run_points(tput_points, jobs=jobs)
    # Fig 8a: "latency distribution at maximum throughput" with a
    # paced load generator — drive at ~95% of the measured peak.
    latency_points = [Point(("E09", "latency", design, proto),
                            _latency_point,
                            dict(design=design, proto=proto,
                                 offered_per_sec=0.95 * tput,
                                 measure_us=measure_us),
                            root_seed=seed)
                      for (design, proto), tput in zip(configs, tputs)]
    latencies = run_points(latency_points, jobs=jobs)
    for (design, proto), tput, (p50, p90) in zip(configs, tputs, latencies):
        result.add(design=design, proto=proto,
                   krps=krps(tput), paper_krps=PAPER[(design, proto)],
                   p50_us=round(p50, 1),
                   p90_us=round(p90, 1),
                   paper_p90_us=PAPER_P90[(design, proto)])
    result.note("paper: Lynx 3.5K (UDP) = +25%% over host-centric 2.8K; "
                "single-GPU max 3.6K; p90 ~295-300us vs 14%% slower baseline")
    return result
