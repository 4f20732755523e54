#!/usr/bin/env python3
"""A multi-GPU k-nearest-neighbour service behind one Lynx instance.

Real brute-force k-NN over a replicated vector dataset, with queries
fanned out across GPUs through per-GPU mqueues.  Demonstrates the
multi-accelerator story on a second workload: answers are verified
against a local computation, and adding GPUs scales throughput while
the host CPU stays idle.

Run:  python examples/knn_service.py
"""

from repro import Testbed
from repro.apps.knn import KnnApp, KnnDataset, decode_result, encode_query
from repro.net import Address, ClosedLoopGenerator
from repro.net.packet import UDP


def build(n_gpus, dataset, seed=13, compute_for_real=True):
    tb = Testbed(seed=seed)
    env = tb.env
    host = tb.machine("10.0.0.1")
    snic = tb.bluefield("10.0.0.100")
    runtime, server = tb.lynx_on_bluefield(snic)
    app = KnnApp(dataset=dataset, compute_for_real=compute_for_real)
    for _ in range(n_gpus):
        gpu = host.add_gpu()
        env.process(runtime.start_gpu_service(gpu, app, port=7000,
                                              n_mqueues=1))
    tb.run(until=500)
    return tb, host, Address("10.0.0.100", 7000)


def main():
    dataset = KnnDataset(size=4096)
    print("dataset: %d vectors, %d-dim; kernel ~%.0fus per query"
          % (len(dataset), dataset.vectors.shape[1],
             KnnApp(dataset=dataset).gpu_duration))

    # -- correctness: served answers == local answers --------------------
    tb, host, address = build(2, dataset)
    client = tb.client("10.0.1.1")
    checks = []

    def drive(env):
        for i in range(10):
            query = dataset.sample_query(i)
            response = yield from client.request(encode_query(query),
                                                 address, proto=UDP)
            served = decode_result(response.payload)
            local_idx, local_dist = dataset.query(query)
            checks.append([s[0] for s in served] == list(local_idx))

    tb.env.process(drive(tb.env))
    tb.run(until=100_000)
    print("served top-k matches local top-k: %d/%d queries"
          % (sum(checks), len(checks)))

    # -- scaling: 1 -> 4 GPUs ---------------------------------------------
    print("\nthroughput scaling (timing-only mode):")
    base = None
    for n_gpus in (1, 2, 4):
        tb, host, address = build(n_gpus, dataset, compute_for_real=False)
        client = tb.client("10.0.1.1")
        ClosedLoopGenerator(tb.env, client, address,
                            concurrency=2 * n_gpus,
                            payload_fn=lambda i: encode_query(
                                dataset.sample_query(i)),
                            proto=UDP)
        tb.warmup_then_measure([client.responses], 30_000, 100_000)
        tput = client.responses.per_sec()
        base = base or tput
        busy = max((pool.utilization for pool in host.socket.pools),
                   default=0.0)
        print("  %d GPU(s): %6.0f queries/s  (%.2fx, host CPU %.0f%%)"
              % (n_gpus, tput, tput / base, 100 * busy))


if __name__ == "__main__":
    main()
