"""E06 — §6.2 "Bluefield vs Innova FPGA": receive-path throughput.

64B UDP messages into 240 mqueues on a single GPU; only the receive
path is measured (the Innova prototype has no TX).  Paper: the Innova
AFU sustains 7.4M packets/s, Bluefield 0.5M, and the CPU-centric design
on six cores is ~80x slower than Innova.
"""

from ..apps.base import SpinApp
from ..config import K40M
from ..lynx.innova import InnovaLynxServer
from ..lynx.mqueue import MQueue
from ..net.packet import Address, Message, UDP
from .base import ExperimentResult
from .common import HOST_CENTRIC, LYNX_BLUEFIELD, deploy
from .testbed import Testbed

PAPER_INNOVA_PPS = 7.4e6
PAPER_BLUEFIELD_PPS = 0.5e6
PAPER_CPU_SLOWDOWN_VS_INNOVA = 80.0

N_MQUEUES = 240
MESSAGE_BYTES = 64


class _ConsumeApp(SpinApp):
    """Receive-path measurement: consume requests, never respond."""

    name = "consume"

    def __init__(self):
        super().__init__(0.0)

    def handle(self, ctx, entry):
        return None
        yield  # pragma: no cover - makes this a generator


def _flood(env, network, dst, rate_per_us, nbytes, name="flood"):
    """Inject raw datagrams at line rate without client-side overheads."""
    src = Address("10.0.8.1", 5555)

    def proc(env):
        gap = 1.0 / rate_per_us
        while True:
            msg = Message(src, dst, b"x" * nbytes, proto=UDP,
                          created_at=env.now)
            network.deliver(msg)
            yield env.timeout(gap)

    return env.process(proc(env), name=name)


def _measure_innova(seed, measure):
    tb = Testbed(seed=seed)
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu(K40M)
    snic = tb.innova("10.0.0.101")
    helper = host.pool(count=1, name="innova-helper")
    server = InnovaLynxServer(env, snic, helper)
    mqs = [MQueue(env, gpu.memory, entries=64, name="innova-mq%d" % i)
           for i in range(N_MQUEUES)]
    server.bind(7777, mqs)

    def consumer(tb_index):
        mq = mqs[tb_index]
        while True:
            yield mq.pop_rx()
            yield env.timeout(gpu.poll_latency)

    gpu.persistent_kernel(N_MQUEUES, consumer)
    _flood(env, tb.network, Address("10.0.0.101", 7777), 10.0, MESSAGE_BYTES)
    tb.warmup_then_measure([server.delivered], 5000, measure)
    return server.delivered.per_sec()


def _measure_bluefield(seed, measure):
    dep = deploy(LYNX_BLUEFIELD, app=_ConsumeApp(), n_mqueues=N_MQUEUES,
                 proto=UDP, seed=seed)
    _flood(dep.env, dep.tb.network, dep.address, 2.0, MESSAGE_BYTES)
    dep.tb.warmup_then_measure([dep.server.requests], 5000, measure)
    return dep.server.requests.per_sec()


def _measure_host_centric(seed, measure):
    # "CPU-centric design running on six cores": receive-side admission
    # rate of the host-centric server with a zero-time kernel.
    dep = deploy(HOST_CENTRIC, app=SpinApp(0.0), proto=UDP, seed=seed,
                 hc_cores=6)
    _flood(dep.env, dep.tb.network, dep.address, 1.0, MESSAGE_BYTES)
    dep.tb.warmup_then_measure([dep.server.requests], 5000, measure)
    return dep.server.requests.per_sec()


def run(fast=True, seed=42):
    """Run this experiment; see the module docstring for the paper context."""
    result = ExperimentResult(
        "E06", "Receive throughput: Innova AFU vs Bluefield vs host CPU",
        "§6.2")
    measure = 8000.0 if fast else 20000.0
    innova = _measure_innova(seed, measure)
    bluefield = _measure_bluefield(seed, measure)
    host = _measure_host_centric(seed, measure * 3)
    result.add(platform="innova-afu", mpps=round(innova / 1e6, 2),
               paper_mpps=7.4, vs_innova=1.0)
    result.add(platform="bluefield", mpps=round(bluefield / 1e6, 2),
               paper_mpps=0.5, vs_innova=round(innova / bluefield, 1))
    result.add(platform="host-centric-6core", mpps=round(host / 1e6, 3),
               paper_mpps=round(7.4 / 80, 3),
               vs_innova=round(innova / host, 1))
    result.note("paper: Innova 7.4M pps; Bluefield 0.5M; CPU-centric on "
                "six cores ~80x slower than Innova")
    return result
