"""E08 — §6.2 Intel VCA integration: secure AES echo inside SGX.

A 4-byte AES-encrypted value is decrypted, multiplied and re-encrypted
inside an SGX enclave on a VCA node, at a 1K req/s offered load.
Paper: Lynx reaches 56us 90th-percentile latency, ~4.3x lower than the
host-bridge baseline.  Crypto is real (from-scratch AES-128).

The Lynx half is the §5.4 generic path: ``LynxRuntime.start_gpu_service``
on a :class:`~repro.hw.vca.VcaNodeAccelerator`, the same runtime
contract a GPU service uses.
"""

from ..apps.sgx_echo import SgxEchoApp, VcaBridgeBaseline
from ..hw import VcaNodeAccelerator
from ..net import Address, OpenLoopGenerator
from ..net.packet import UDP
from .base import ExperimentResult
from .testbed import Testbed

PAPER_LYNX_P90 = 56.0
PAPER_SPEEDUP = 4.3
OFFERED_PER_SEC = 1000.0


def _measure_lynx(app, seed, measure):
    tb = Testbed(seed=seed)
    env = tb.env
    tb.machine("10.0.0.1")
    vca = tb.vca()
    snic = tb.bluefield("10.0.0.100")
    runtime, _server = tb.lynx_on_bluefield(snic)
    env.process(runtime.start_gpu_service(
        VcaNodeAccelerator(vca.nodes[0]), app, port=9000))
    client = tb.client("10.0.1.1")
    payload = app.encrypt_value(6)
    OpenLoopGenerator(env, client, Address("10.0.0.100", 9000),
                      OFFERED_PER_SEC / 1e6, lambda i: payload, proto=UDP)
    tb.warmup_then_measure([client.latency], 30000, measure)
    return client.latency


def _measure_bridge(app, seed, measure):
    tb = Testbed(seed=seed)
    host = tb.machine("10.0.0.1")
    vca = tb.vca()
    VcaBridgeBaseline(tb.env, host, vca.nodes[0], app, port=9000)
    client = tb.client("10.0.1.1")
    payload = app.encrypt_value(6)
    OpenLoopGenerator(tb.env, client, Address("10.0.0.1", 9000),
                      OFFERED_PER_SEC / 1e6, lambda i: payload, proto=UDP)
    tb.warmup_then_measure([client.latency], 30000, measure)
    return client.latency


def run(fast=True, seed=42):
    """Run this experiment; see the module docstring for the paper context."""
    result = ExperimentResult(
        "E08", "SGX secure echo on the Intel VCA @1K req/s",
        "§6.2")
    measure = 200000 if fast else 1000000
    app = SgxEchoApp()
    lynx_lat = _measure_lynx(app, seed, measure)
    bridge_lat = _measure_bridge(app, seed, measure)
    result.add(path="lynx (mqueue, enclave-linked I/O)",
               p90_us=round(lynx_lat.p90(), 1),
               p50_us=round(lynx_lat.p50(), 1),
               paper_p90_us=PAPER_LYNX_P90, speedup=round(
                   bridge_lat.p90() / lynx_lat.p90(), 2))
    result.add(path="host bridge baseline",
               p90_us=round(bridge_lat.p90(), 1),
               p50_us=round(bridge_lat.p50(), 1),
               paper_p90_us=round(PAPER_LYNX_P90 * PAPER_SPEEDUP, 0),
               speedup=1.0)
    result.note("paper: Lynx p90 = 56us, 4.3x lower than the baseline; "
                "payloads are genuinely AES-encrypted end to end")
    return result
