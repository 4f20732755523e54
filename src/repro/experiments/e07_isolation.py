"""E07 — §6.2 performance isolation.

Re-runs the §3.2 noisy-neighbour scenario, but with the GPU server
managed by Lynx on the Bluefield: the serving path never touches the
host CPU, so the host-side LLC aggressor cannot hurt it.  The paper
"observes no interference", in contrast to the host-centric run.
"""

from ..apps.vector_scale import MatrixProductAggressor, VectorScaleApp, encode_vector
from ..net import ClosedLoopGenerator
from ..net.packet import UDP
from .base import ExperimentResult
from .common import LYNX_BLUEFIELD, deploy
from .e02_noisy_neighbor import VICTIM_WORKING_SET


def _run_config(with_aggressor, seed, measure):
    dep = deploy(LYNX_BLUEFIELD, app=VectorScaleApp(), n_mqueues=4,
                 seed=seed)
    tb, env, host = dep.tb, dep.env, dep.host
    if with_aggressor:
        # the aggressor hammers the *host* LLC, where nothing of the
        # serving path lives any more
        host.socket.llc.occupy(VICTIM_WORKING_SET)
        MatrixProductAggressor(env, host.pool(count=2, name="aggressor"))
    client = tb.client("10.0.1.1")
    payload = encode_vector(list(range(256)))
    ClosedLoopGenerator(env, client, dep.address,
                        concurrency=4, payload_fn=lambda i: payload,
                        proto=UDP, timeout=100000)
    tb.warmup_then_measure([client.latency], 30000, measure)
    return client.latency


def run(fast=True, seed=42):
    """Run this experiment; see the module docstring for the paper context."""
    result = ExperimentResult(
        "E07", "Performance isolation: Lynx on Bluefield + noisy neighbour",
        "§6.2")
    measure = 300000 if fast else 1500000
    alone = _run_config(False, seed, measure)
    shared = _run_config(True, seed, measure)
    ratio = shared.p99() / alone.p99()
    result.add(config="lynx-bluefield alone",
               p99_us=round(alone.p99(), 1), p99_ratio=1.0)
    result.add(config="lynx-bluefield + noisy neighbour",
               p99_us=round(shared.p99(), 1), p99_ratio=round(ratio, 2))
    result.note("paper: no interference (cf. 13x p99 inflation in the "
                "host-centric run, experiment E02)")
    return result
