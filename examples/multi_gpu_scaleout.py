#!/usr/bin/env python3
"""Scale-out beyond one machine (§5.5, Figure 8b).

A single Bluefield-resident Lynx instance drives LeNet on K80 GPUs in
three machines — 4 local, then 4 and 8 more reached through the remote
hosts' RDMA NICs.  Because mqueues are always accessed by one-sided
RDMA, a remote GPU is "indistinguishable from a local one" apart from a
few microseconds of extra latency; throughput scales linearly and no
host CPU anywhere touches the data path.

Run:  python examples/multi_gpu_scaleout.py
"""

from repro import Testbed
from repro.apps.lenet import LeNetApp, MnistStream
from repro.config import K80
from repro.net import Address, ClosedLoopGenerator
from repro.net.packet import UDP


def run_config(local_gpus, remote_gpus_per_host, seed=5):
    tb = Testbed(seed=seed)
    env = tb.env
    machines = [tb.machine("10.0.0.%d" % (i + 1)) for i in range(3)]
    snic = tb.bluefield("10.0.0.100")
    runtime, server = tb.lynx_on_bluefield(snic)
    app = LeNetApp(compute_for_real=False)

    total = 0
    for index, machine in enumerate(machines):
        count = local_gpus if index == 0 else remote_gpus_per_host
        for _ in range(count):
            gpu = machine.add_gpu(K80)
            env.process(runtime.start_gpu_service(
                gpu, app, port=7777, n_mqueues=1, remote=index > 0))
            total += 1
    tb.run(until=500)

    stream = MnistStream(seed=seed)
    clients = [tb.client("10.0.9.%d" % i) for i in (1, 2)]
    for client in clients:
        ClosedLoopGenerator(env, client, Address("10.0.0.100", 7777),
                            concurrency=2 * total,
                            payload_fn=lambda i: stream.sample(i)[0],
                            proto=UDP)
    meters = [c.responses for c in clients]
    tb.warmup_then_measure(meters, 60_000, 120_000)
    tput = sum(m.per_sec() for m in meters)
    host_busy = max((pool.utilization for m in machines
                     for pool in m.socket.pools), default=0.0)
    return total, tput, host_busy


def main():
    print("config                 gpus   req/s     per-GPU   host CPUs")
    print("-" * 62)
    baseline_per_gpu = None
    for label, local, remote in (("4 local", 4, 0),
                                 ("4 local + 4 remote", 4, 2),
                                 ("4 local + 8 remote", 4, 4)):
        total, tput, host_busy = run_config(local, remote)
        per_gpu = tput / total
        if baseline_per_gpu is None:
            baseline_per_gpu = per_gpu
        print("%-22s %4d  %7.0f  %7.0f    %4.1f%% busy (max)"
              % (label, total, tput, per_gpu, 100 * host_busy))
    print("\nlinear scaling: per-GPU rate stays ~constant as GPUs are "
          "added across machines (paper: 3.3K req/s per K80).")


if __name__ == "__main__":
    main()
