#!/usr/bin/env python3
"""Secure serving on the Intel VCA (§5.4, §6.2).

An SGX enclave on a VCA node serves AES-encrypted multiply requests.
The Lynx I/O library is small enough to be statically linked *into the
enclave*, so the node just polls an mqueue: the enclave app is an
ordinary ``ServerApp`` brought up by ``LynxRuntime.start_gpu_service``
on a ``VcaNodeAccelerator`` (§5.4), as a GPU service is.  The baseline
tunnels every
message through the host's IP-over-PCIe network bridge.  The example
round-trips real AES-128 ciphertexts through both paths and compares
latency (paper: 56us p90 via Lynx, ~4.3x better).

Run:  python examples/sgx_enclave.py
"""

from repro import Testbed
from repro.apps.sgx_echo import SgxEchoApp, VcaBridgeBaseline
from repro.hw import VcaNodeAccelerator
from repro.net import Address, OpenLoopGenerator
from repro.net.packet import UDP


def lynx_path(app, seed=21):
    tb = Testbed(seed=seed)
    tb.machine("10.0.0.1")
    vca = tb.vca()
    snic = tb.bluefield("10.0.0.100")
    runtime, _server = tb.lynx_on_bluefield(snic)
    tb.env.process(runtime.start_gpu_service(
        VcaNodeAccelerator(vca.nodes[0]), app, port=9000))
    return tb, Address("10.0.0.100", 9000)


def bridge_path(app, seed=21):
    tb = Testbed(seed=seed)
    host = tb.machine("10.0.0.1")
    vca = tb.vca()
    VcaBridgeBaseline(tb.env, host, vca.nodes[0], app, port=9000)
    return tb, Address("10.0.0.1", 9000)


def main():
    app = SgxEchoApp(key=b"demo-enclave-key", multiplier=7)

    # one explicit secure round trip, checking the crypto end to end
    tb, address = lynx_path(app)
    client = tb.client("10.0.1.1")
    answers = []

    def secure_call(env):
        for value in (3, 10, -4):
            ciphertext = app.encrypt_value(value)
            response = yield from client.request(ciphertext, address,
                                                 proto=UDP)
            answers.append((value, app.decrypt_value(response.payload)))

    tb.env.process(secure_call(tb.env))
    tb.run(until=50_000)
    print("secure multiply-by-7 (AES-128 both ways):")
    for value, result in answers:
        print("  E(%3d) -> enclave -> E(%3d)  %s"
              % (value, result, "OK" if result == value * 7 else "WRONG"))

    # latency comparison at 1K req/s
    print("\np90 latency at 1K req/s (paper: 56us vs ~4.3x worse):")
    for label, builder in (("lynx mqueue path", lynx_path),
                           ("host bridge path", bridge_path)):
        tb, address = builder(app)
        client = tb.client("10.0.1.1")
        payload = app.encrypt_value(6)
        OpenLoopGenerator(tb.env, client, address, 1000 / 1e6,
                          lambda i: payload, proto=UDP)
        tb.warmup_then_measure([client.latency], 30_000, 300_000)
        print("  %-18s p50 %6.1fus   p90 %6.1fus"
              % (label, client.latency.p50(), client.latency.p90()))


if __name__ == "__main__":
    main()
