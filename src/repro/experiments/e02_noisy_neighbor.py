"""E02 — §3.2 noisy neighbour interference.

A host-centric GPU vector-scale server (256 ints/request) co-executes
with an 1140x1140 integer matmul that fills the Xeon's LLC.  The paper
measures a 13x higher 99th-percentile response latency for the server
(0.13ms -> 1.7ms) and a 21% slowdown for the matmul.
"""

from ..apps.vector_scale import (
    MatrixProductAggressor,
    VectorScaleApp,
    encode_vector,
)
from ..net import ClosedLoopGenerator
from ..net.packet import UDP
from .base import ExperimentResult
from .common import HOST_CENTRIC, deploy

PAPER_P99_RATIO = 13.0
PAPER_AGGRESSOR_SLOWDOWN = 1.21

#: serving-path buffers + GPU staging: enough to tip the LLC over once
#: the aggressor has filled it
VICTIM_WORKING_SET = 4 * 1024 * 1024
VICTIM_MEMORY_INTENSITY = 0.85


def _run_config(with_aggressor, seed, measure):
    dep = deploy(HOST_CENTRIC, app=VectorScaleApp(), seed=seed)
    tb, env, host = dep.tb, dep.env, dep.host
    # The victim's serving path is cache-sensitive, and its buffers stay
    # resident between requests (persistent occupancy).
    dep.server.pool.default_memory_intensity = VICTIM_MEMORY_INTENSITY
    host.socket.llc.occupy(VICTIM_WORKING_SET)
    aggressor = None
    if with_aggressor:
        aggressor_pool = host.pool(count=2, name="aggressor-pool")
        aggressor = MatrixProductAggressor(env, aggressor_pool)
    client = tb.client("10.0.1.1")
    payload = encode_vector(list(range(256)))
    ClosedLoopGenerator(env, client, dep.address,
                        concurrency=4, payload_fn=lambda i: payload,
                        proto=UDP, timeout=100000)
    tb.warmup_then_measure([client.latency], 30000, measure)
    mean_product = (aggressor.mean_product_time() if aggressor else None)
    return client.latency, mean_product


def run(fast=True, seed=42):
    """Run this experiment; see the module docstring for the paper context."""
    result = ExperimentResult(
        "E02", "Noisy neighbour: LLC interference on the victim server",
        "§3.2")
    measure = 400000 if fast else 2000000
    alone, _ = _run_config(False, seed, measure)
    shared, product_time = _run_config(True, seed, measure)
    # The aggressor is a single sequential computation: its uncontended
    # duration is the calibrated product time.
    solo_product = MatrixProductAggressor.DURATION_XEON_US
    ratio = shared.p99() / alone.p99()
    result.add(config="victim alone", p99_ms=round(alone.p99() / 1000, 3),
               p50_ms=round(alone.p50() / 1000, 3), p99_ratio=1.0,
               matmul_slowdown=None)
    result.add(config="with noisy neighbour",
               p99_ms=round(shared.p99() / 1000, 3),
               p50_ms=round(shared.p50() / 1000, 3),
               p99_ratio=round(ratio, 1),
               matmul_slowdown=round(product_time / solo_product, 2))
    result.note("paper: p99 0.13ms -> 1.7ms (13x); matmul slows 21%")
    return result
