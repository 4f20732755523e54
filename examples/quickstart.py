#!/usr/bin/env python3
"""Quickstart: a GPU echo service behind Lynx on a Bluefield SmartNIC.

Builds the smallest complete deployment from the paper's Figure 3:

    client --UDP--> Bluefield (Lynx server) --RDMA--> mqueues in GPU
    memory --> persistent-kernel echo --> back to the client

and shows the two headline properties: end-to-end payload integrity
through the accelerator-centric data plane, and a *completely idle*
host CPU while requests are served.

Run:  python examples/quickstart.py
"""

from repro import Testbed, EchoApp
from repro.net import Address, ClosedLoopGenerator
from repro.net.packet import UDP


def main():
    tb = Testbed(seed=7)
    env = tb.env

    # -- hardware: one host with a K40m, one Bluefield SNIC -------------
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu()
    snic = tb.bluefield("10.0.0.100")

    # -- Lynx: runtime setup runs on the host CPU, then it goes idle ----
    runtime, server = tb.lynx_on_bluefield(snic)
    env.process(runtime.start_gpu_service(
        gpu, EchoApp(), port=7777, n_mqueues=4))
    tb.run(until=100)

    # -- a few explicit request/response round trips ---------------------
    client = tb.client("10.0.1.1")
    echoes = []

    def round_trips(env):
        for i in range(5):
            payload = b"lynx says hi #%d" % i
            response = yield from client.request(
                payload, Address("10.0.0.100", 7777), proto=UDP)
            echoes.append((payload, bytes(response.payload)))

    env.process(round_trips(env))
    tb.run(until=10_000)
    print("echo round trips:")
    for sent, received in echoes:
        status = "OK " if sent == received else "BAD"
        print("  [%s] %r -> %r" % (status, sent, received))

    # -- sustained load: measure latency, prove the host CPU is idle ----
    gen = ClosedLoopGenerator(env, client, Address("10.0.0.100", 7777),
                              concurrency=8,
                              payload_fn=lambda i: b"x" * 64, proto=UDP)
    tb.warmup_then_measure([client.latency, client.responses],
                           warmup=20_000, measure=100_000)

    print("\nunder load (8 outstanding requests):")
    print("  throughput : %8.0f req/s" % client.responses.per_sec())
    print("  latency    : p50 %.1fus  p99 %.1fus"
          % (client.latency.p50(), client.latency.p99()))
    print("  SNIC cores : %.0f%% busy" % (100 * snic.workers.utilization))
    print("  host cores : %.0f%% busy  <- the whole point of Lynx"
          % (100 * max((pool.utilization for pool in host.socket.pools),
                       default=0.0)))


if __name__ == "__main__":
    main()
