"""Traffic-plane benchmark: flyweight population vs per-Client scalar.

Drives the same offered load — Poisson arrivals at a fixed aggregate
rate into a mute (non-responding) sink, so the measurement isolates the
*generation* path rather than the server — through two planes:

* **scalar**: four ``Client`` objects, each with an
  ``OpenLoopGenerator`` drawing one inter-arrival gap and one kernel
  event per request;
* **vector**: one ``ClientPopulation`` pre-generating arrivals in
  numpy chunks and injecting coalesced frames (one scheduler event per
  frame, struct-of-arrays in-flight tracking).

Rounds interleave the two planes (A/B/A/B...) so machine-speed drift
lands on both sides, and the *best* vector:scalar arrivals-per-wall-
second ratio across rounds is recorded with every round.  Nothing is
asserted on it: a wall-clock ratio moves whenever either plane gets
faster.  What the population plane's speed rests on, frame coalescing,
is pinned by count instead: ``tests/experiments/test_event_budget.py``
runs this scenario and pins its 10,005 events for 79,988 arrivals.
"""

import json
import os
import time

from repro.experiments.testbed import Testbed
from repro.net import (
    Address,
    ClientPopulation,
    OpenLoopGenerator,
    PayloadPool,
    PoissonPopulation,
)
from repro.sim import Channel

from conftest import RESULTS_DIR, SEED

RESULTS_PATH = os.path.join(RESULTS_DIR, "traffic_plane.json")

#: aggregate offered rate (requests/us) and simulated horizon (us) —
#: a high rate so generation dominates and frames carry real bursts
RATE = 8.0
HORIZON_US = 10000.0
#: frame width (us): ~16 arrivals share one landing event
COALESCE_US = 2.0
SCALAR_CLIENTS = 4
ROUNDS = 4


def _save(section, payload):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as fh:
            data = json.load(fh)
    data[section] = payload
    with open(RESULTS_PATH, "w") as fh:
        json.dump(data, fh, indent=2)


def _mute_testbed(seed):
    """A Testbed whose only server is a sink that never responds."""
    tb = Testbed(seed=seed)

    class MuteSink:
        rx = Channel(tb.env, name="mute-rx")

    tb.network.attach("10.0.0.9", MuteSink())
    return tb, Address("10.0.0.9", 7777)


def _scalar_round(seed):
    """(arrivals, wall_seconds) for the per-Client plane."""
    tb, dst = _mute_testbed(seed)
    gens = []
    for i in range(SCALAR_CLIENTS):
        client = tb.client("10.0.9.%d" % (i + 1))
        gens.append(OpenLoopGenerator(tb.env, client, dst,
                                      RATE / SCALAR_CLIENTS,
                                      payload_fn=lambda i: b"x" * 64))
    t0 = time.perf_counter()
    tb.run(until=HORIZON_US)
    wall = time.perf_counter() - t0
    return sum(g.offered for g in gens), wall


def _vector_round(seed):
    """(arrivals, wall_seconds) for the population plane."""
    tb, dst = _mute_testbed(seed)
    pop = ClientPopulation(tb.env, tb.network, "10.0.9.1", dst,
                           PoissonPopulation(RATE, tb.rng.stream("bench")),
                           PayloadPool.single(b"x" * 64),
                           coalesce_us=COALESCE_US)
    t0 = time.perf_counter()
    tb.run(until=HORIZON_US)
    wall = time.perf_counter() - t0
    return pop.offered, wall


def test_population_vs_scalar_rounds():
    rounds = []
    best = None
    for i in range(ROUNDS):
        # Interleave within the round so drift hits both planes alike.
        s_arrivals, s_wall = _scalar_round(SEED + i)
        v_arrivals, v_wall = _vector_round(SEED + i)
        s_rate = s_arrivals / s_wall
        v_rate = v_arrivals / v_wall
        entry = {
            "scalar_arrivals": int(s_arrivals),
            "scalar_wall_seconds": round(s_wall, 4),
            "scalar_arrivals_per_sec": round(s_rate),
            "vector_arrivals": int(v_arrivals),
            "vector_wall_seconds": round(v_wall, 4),
            "vector_arrivals_per_sec": round(v_rate),
            "ratio": round(v_rate / s_rate, 2),
        }
        rounds.append(entry)
        if best is None or entry["ratio"] > best["ratio"]:
            best = entry
    _save("population_vs_scalar", {
        "rate_per_us": RATE,
        "horizon_us": HORIZON_US,
        "coalesce_us": COALESCE_US,
        "scalar_clients": SCALAR_CLIENTS,
        "best_ratio": best["ratio"],
        "best_vector_arrivals_per_sec": best["vector_arrivals_per_sec"],
        "rounds": rounds,
    })
