"""VIP steering benchmark: batched RX-ring drain vs one-wakeup-per-msg.

Isolates the :class:`~repro.net.cluster.L4LoadBalancer` hot path: a
preloaded VIP RX ring of keyed GETs steered across 8 mute replicas
through the full p2c pipeline (key extraction, ring lookup, two depth
probes, destination rewrite, fabric re-injection).  The A side drains
the ring in batches of up to 64 (one get-arm, one callback, one defer
per *batch*); the B side is the scalar baseline (``batched=False``, the
same ladder per *message*).  The simulated steering work is identical —
``steer_cost`` is charged per message in both modes — so the comparison
is pure host-side drain-loop overhead.

Two gates, strongest first:

* **kernel events** — batching must collapse the per-message wakeup
  ladder: exact counts under the fixed seed, deterministic on any
  machine.
* **wall-clock** — rounds interleave the two modes (A/B/A/B...) so
  machine-speed drift lands on both sides; the recorded ``best_ratio``
  (best batched:scalar steered-per-wall-second across rounds) feeds
  ``tools/check_bench_regression.py``, with ``ratio_floor`` pinned
  well below the dev-machine band (measures 1.25-1.5x) so VM drift
  cannot flake the gate.
"""

import json
import os
import time

from repro.apps.memcached import encode_get
from repro.net import ConsistentHashRing, L4LoadBalancer, Network
from repro.net.packet import Address, Message
from repro.sim import (
    Environment,
    RngRegistry,
    Store,
    kernel_totals,
    reset_kernel_totals,
)

from conftest import RESULTS_DIR, SEED

RESULTS_PATH = os.path.join(RESULTS_DIR, "cluster_steering.json")

VIP = "10.0.0.100"
#: steered requests per round; hot-key space wraps at 512 users
MESSAGES = 40000
BACKENDS = 8
ROUNDS = 4
#: the batched drain must shed at least this fraction of kernel events
#: (measures 0.328 exactly under the fixed drain geometry)
EVENT_REDUCTION_FLOOR = 0.25
#: absolute wall-clock acceptance bar for check_bench_regression.py;
#: dev machine measures 1.25-1.5x, floor sits below the drift band
RATIO_FLOOR = 1.05


def _save(section, payload):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as fh:
            data = json.load(fh)
    data[section] = payload
    with open(RESULTS_PATH, "w") as fh:
        json.dump(data, fh, indent=2)


class _MutePort:
    """A replica that absorbs steered frames and never answers."""

    def __init__(self, env):
        self.rx = Store(env)


def _steer_round(batched, seed):
    """(steered_per_wall_second, events_processed) for one drain mode."""
    reset_kernel_totals()
    env = Environment()
    net = Network(env)
    ips = ["10.0.0.%d" % (i + 1) for i in range(BACKENDS)]
    ring = ConsistentHashRing(ips)
    lb = L4LoadBalancer(env, net, VIP, policy="p2c", rng=RngRegistry(seed),
                        ring=ring, replication=2, steer_cost=0.1,
                        rx_ring=MESSAGES + 1, batched=batched)
    for ip in ips:
        net.attach(ip, _MutePort(env))
        lb.add_backend(Address(ip, 11211))
    vip = Address(VIP, 11211)
    src = Address("10.0.9.9", 1000)
    msgs = [Message(src, vip, encode_get(b"user-%05d" % (i % 512)))
            for i in range(MESSAGES)]
    t0 = time.perf_counter()
    for msg in msgs:
        lb.rx.try_put(msg)
    env.run()
    wall = time.perf_counter() - t0
    assert lb.steered == MESSAGES, (
        "steered %d of %d messages" % (lb.steered, MESSAGES))
    return MESSAGES / wall, kernel_totals()["events_processed"]


def test_batched_steering_beats_scalar_drain():
    rounds = []
    best = None
    scalar_events = batched_events = None
    for i in range(ROUNDS):
        # Interleave within the round so drift hits both modes alike.
        s_rate, scalar_events = _steer_round(False, SEED + i)
        b_rate, batched_events = _steer_round(True, SEED + i)
        entry = {
            "scalar_steered_per_sec": round(s_rate),
            "batched_steered_per_sec": round(b_rate),
            "ratio": round(b_rate / s_rate, 2),
        }
        rounds.append(entry)
        if best is None or entry["ratio"] > best["ratio"]:
            best = entry
    event_reduction = 1.0 - batched_events / scalar_events
    _save("batched_vs_scalar_steering", {
        "messages": MESSAGES,
        "backends": BACKENDS,
        "policy": "p2c",
        "scalar_events": scalar_events,
        "batched_events": batched_events,
        "event_reduction": round(event_reduction, 4),
        "best_ratio": best["ratio"],
        "ratio_floor": RATIO_FLOOR,
        "rounds": rounds,
    })
    # Deterministic gate: the batch ladder must collapse wakeup events.
    assert batched_events < scalar_events
    assert event_reduction >= EVENT_REDUCTION_FLOOR, (
        "batched drain shed only %.1f%% of kernel events (floor %.0f%%)"
        % (100 * event_reduction, 100 * EVENT_REDUCTION_FLOOR))
    # Wall-clock gate: best-of-rounds ratio above the drift-proof floor.
    assert best["ratio"] >= RATIO_FLOOR, (
        "batched steering only %.2fx the scalar drain (floor %.2fx): "
        "%s/s vs %s/s"
        % (best["ratio"], RATIO_FLOOR, best["batched_steered_per_sec"],
           best["scalar_steered_per_sec"]))
