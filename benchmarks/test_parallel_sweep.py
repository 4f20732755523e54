"""Serial-vs-parallel wall-clock of the sweep executor on the E04 grid.

Runs the fast Fig 6 saturation grid twice through
:func:`repro.experiments.sweep.run_points` — once inline (``jobs=1``),
once requesting four workers — in one process, one after the other, so
both sides of the ratio are timed on the same machine in the same
minute.  Nothing is compared against a number recorded elsewhere and
nothing is written.

The worker request is clamped to :func:`sweep.usable_cores` exactly as
the executor clamps it: on a one-core runner both runs are inline and
only the values are checked.

Two gates:

* the parallel run must return exactly the serial values (the executor
  contract, cheap to re-assert here since we have both runs anyway);
* on machines with enough cores the fan-out must actually pay: >= 2x
  with four usable cores, a softer floor with two.
"""

import time

from repro.experiments import e04_fig6_throughput_grid as e04
from repro.experiments import sweep

from conftest import SEED

JOBS = 4


def test_parallel_sweep_speedup():
    points = e04.sweep_points(fast=True, seed=SEED)
    usable = sweep.usable_cores()
    effective = min(JOBS, usable, len(points))

    t0 = time.perf_counter()
    serial_values = sweep.run_points(points, jobs=1)
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel_values = sweep.run_points(points, jobs=JOBS)
    parallel_seconds = time.perf_counter() - t0

    assert parallel_values == serial_values, (
        "parallel sweep values diverged from the serial run")

    if usable >= JOBS:
        floor = 2.0
    elif usable >= 2:
        floor = 1.2
    else:
        return  # no pool forked: values checked, nothing to time
    ratio = serial_seconds / parallel_seconds
    assert ratio >= floor, (
        "jobs=%d sweep only %.2fx faster than serial on %d usable cores "
        "(%.1fs vs %.1fs); floor %.1fx"
        % (effective, ratio, usable, parallel_seconds, serial_seconds,
           floor))
