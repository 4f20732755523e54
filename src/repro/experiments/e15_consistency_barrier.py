"""E15 — §5.1: the GPU PCIe-ordering consistency workaround.

Delivering a message into GPU memory with strict write ordering takes
three RDMA transactions (payload write, barrier read, doorbell write)
instead of one coalesced write, costing ~5us extra per message and
disabling the metadata coalescing optimization.  The paper measures the
overhead and then disables the workaround for its evaluation (persistent
kernels merely emulate accelerators); we reproduce both the latency and
the RDMA-operation inflation.
"""

from ..apps.base import SpinApp
from ..config import GpuProfile, K40M
from ..net import ClosedLoopGenerator
from ..net.packet import UDP
from .base import ExperimentResult
from .common import LYNX_BLUEFIELD, deploy

PAPER_EXTRA_US = 5.0


def _measure(profile, seed, measure):
    dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0), seed=seed,
                 gpu_profile=profile)
    tb, service = dep.tb, dep.service
    client = tb.client("10.0.9.1")
    ClosedLoopGenerator(dep.env, client, dep.address,
                        concurrency=1, payload_fn=lambda i: b"x" * 64,
                        proto=UDP)
    tb.warmup_then_measure([client.latency], 10000.0, measure)
    ops_per_msg = service.manager.qp.ops / max(1, service.delivered)
    return client.latency.p50(), ops_per_msg


def run(fast=True, seed=42):
    """Run this experiment; see the module docstring for the paper context."""
    result = ExperimentResult(
        "E15", "GPU consistency write-barrier overhead",
        "§5.1")
    measure = 30000.0 if fast else 100000.0
    plain, plain_ops = _measure(K40M, seed, measure)
    barrier_profile = GpuProfile(name="k40m-ordered",
                                 needs_write_barrier=True)
    fenced, fenced_ops = _measure(barrier_profile, seed, measure)
    result.add(mode="coalesced (workaround off)", p50_us=round(plain, 1),
               rdma_ops_per_msg=round(plain_ops, 2), extra_us=0.0,
               paper_extra_us=0.0)
    result.add(mode="write barrier (3 transactions)",
               p50_us=round(fenced, 1),
               rdma_ops_per_msg=round(fenced_ops, 2),
               extra_us=round(fenced - plain, 2),
               paper_extra_us=PAPER_EXTRA_US)
    result.note("paper: the barrier adds ~5us per message and disables "
                "metadata/data coalescing")
    return result
