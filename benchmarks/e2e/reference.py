"""The machine-speed yardstick of the end-to-end benchmark.

The benchmark shares its host with other tenants, whose load slows every
process on it by up to 2x for stretches of seconds to minutes.  Timing
the same fixed work beside the workload measures that slowdown: the
measured interpreter runs a :func:`block` of the yardstick before and
after every repetition, and the runner scales each repetition by the
yardstick's time around it (``run.py``'s :func:`~run.scaled`).

:func:`loop` is a small discrete-event loop in plain Python: a heap of
timestamped entries, generator processes resumed with ``send``, a dict
of counters and a few MB of lists touched in scattered order, the same
interpreter paths the simulator's kernel runs.  It imports nothing from
``repro``, so no change to the program moves it.
"""

import gc
import heapq
import random
import time

#: :func:`loop`'s median host time on the baseline machine (README.md);
#: scaled times are in seconds of that machine
NOMINAL_S = 0.125

_STEPS = 100000
_PROCESSES = 512
_CELLS = 200000


def loop():
    """Host seconds of one fixed run of the yardstick."""
    rng = random.Random(1)
    counts = {}

    def process(pid):
        total = 0
        while True:
            total += yield total
            counts[pid] = counts.get(pid, 0) + 1

    processes = [process(pid) for pid in range(_PROCESSES)]
    for proc in processes:
        next(proc)
    cells = [[i, i * 0.5, str(i)] for i in range(_CELLS)]
    heap = [(rng.random(), pid, pid) for pid in range(_PROCESSES)]
    heapq.heapify(heap)
    seq = _PROCESSES
    start = time.perf_counter()
    for step in range(_STEPS):
        when, _, pid = heapq.heappop(heap)
        processes[pid].send(1)
        cells[(pid * 7919 + step * 104729) % _CELLS][0] += 1
        heapq.heappush(heap, (when + rng.random(), seq, pid))
        seq += 1
    return time.perf_counter() - start


def block(seconds):
    """Mean host seconds of :func:`loop` over a block of runs that lasts
    at least *seconds* (at least one run)."""
    gc.collect()
    start = time.perf_counter()
    times = [loop()]
    while time.perf_counter() - start < seconds:
        times.append(loop())
    return sum(times) / len(times)
