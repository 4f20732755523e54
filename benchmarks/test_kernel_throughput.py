"""Simulator-throughput benchmarks for the DES kernel fast path.

Three measurements, written to ``benchmarks/results/kernel_throughput.json``:

* **kernel churn** — a pure ping-pong through the run loop (``defer``
  chains, the step every callback op takes; no model code), reported as
  events/second from the kernel's own counters and gated against a
  recorded floor;
* **E09 / E04 fast runs** — wall-clock of the two experiment runs the
  fast-path work targeted (LeNet serving and the Fig 6 saturation
  grid), compared against the pre-optimisation baseline.

The baseline numbers were measured on the development machine from the
pre-PR tree (git 244c300), back-to-back with the optimised runs on an
idle machine.  To compare fairly on other hardware, a short
pure-python calibration loop scales the baseline by the speed ratio
between this machine and the one the baseline was recorded on.
Wall-clock assertions keep a noise margin; the JSON records the raw
numbers.
"""

import json
import os
import time

import pytest

from repro.sim import Environment

from conftest import RESULTS_DIR, SEED

#: pre-PR (git 244c300) fast-run wall-clock, idle dev machine, seed 42.
#: E09 is best-of-3; E04 is a single run (it takes ~45 s).
BASELINE_E09_SECONDS = 1.224
BASELINE_E04_SECONDS = 44.617

#: best-of-3 of :func:`_calibration_loop` on the machine the baselines
#: were recorded on.
BASELINE_CALIBRATION_SECONDS = 0.1944

#: post-optimisation dev-machine churn rate was ~1.07M events/s; the
#: floor asserts half of that, machine-scaled.
DEV_CHURN_EVENTS_PER_SEC = 1.07e6

RESULTS_PATH = os.path.join(RESULTS_DIR, "kernel_throughput.json")


def _calibration_loop(iterations=5_000_000):
    """A pure-python spin whose duration tracks interpreter speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i
    return time.perf_counter() - t0


def _machine_speed_factor():
    """How much slower this machine is than the baseline machine.

    > 1.0 means slower (baselines are scaled up), < 1.0 means faster.
    """
    calib = min(_calibration_loop() for _ in range(3))
    return calib / BASELINE_CALIBRATION_SECONDS, calib


def _save(section, payload):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as fh:
            data = json.load(fh)
    data[section] = payload
    with open(RESULTS_PATH, "w") as fh:
        json.dump(data, fh, indent=2)


def _churn(env, chains=64, horizon=20000.0):
    """Pure kernel load: *chains* concurrent unit-delay ``defer`` chains."""

    def hop(_arg, env=env):
        if env.now < horizon:
            env.defer(1.0, hop)

    for _ in range(chains):
        env.defer(1.0, hop)
    env.run(until=horizon)
    return env.kernel_stats()


def _churn_section(stats, factor, calib, floor):
    rate = stats["events_processed"] / stats["wall_seconds"]
    return rate, {
        "events_processed": stats["events_processed"],
        "wall_seconds": round(stats["wall_seconds"], 4),
        "events_per_second": round(rate),
        "heap_peak": stats["heap_peak"],
        "processes_spawned": stats["processes_spawned"],
        "machine_speed_factor": round(factor, 3),
        "calibration_seconds": round(calib, 4),
        "floor_events_per_second": round(floor),
    }


class TestKernelChurn:
    def test_event_churn_rate(self, benchmark):
        stats = benchmark.pedantic(lambda: _churn(Environment()),
                                   rounds=3, iterations=1)
        factor, calib = _machine_speed_factor()
        floor = 0.5 * DEV_CHURN_EVENTS_PER_SEC / factor
        rate, payload = _churn_section(stats, factor, calib, floor)
        _save("kernel_churn", payload)
        # The churn path spawns no processes and keeps the heap small:
        # both are the point of the callback-native fast path.
        assert stats["processes_spawned"] == 0
        assert rate >= floor, (
            "churn %.0f ev/s below machine-scaled floor %.0f"
            % (rate, floor))


def _timed_run(module, rounds):
    from importlib import import_module

    mod = import_module("repro.experiments." + module)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        mod.run(fast=True, seed=SEED)
        best = min(best, time.perf_counter() - t0)
    return best


def _paired_speedup(module, baseline, rounds):
    """Best speedup over *rounds*, each paired with its own calibration.

    Machine speed on shared VMs drifts by tens of percent over minutes,
    so a factor measured once up front can be stale by the time a long
    run finishes.  Calibrating immediately before each round and taking
    the best (factor-scaled) round keeps the gate about the *code*, not
    about which minute the suite happened to run in.
    """
    from importlib import import_module

    mod = import_module("repro.experiments." + module)
    best = None
    for _ in range(rounds):
        calib = min(_calibration_loop() for _ in range(2))
        factor = calib / BASELINE_CALIBRATION_SECONDS
        t0 = time.perf_counter()
        mod.run(fast=True, seed=SEED)
        measured = time.perf_counter() - t0
        speedup = baseline * factor / measured
        if best is None or speedup > best["speedup"]:
            best = {
                "machine_speed_factor": round(factor, 3),
                "calibration_seconds": round(calib, 4),
                "scaled_baseline_seconds": round(baseline * factor, 3),
                "measured_seconds": round(measured, 3),
                "speedup": round(speedup, 2),
            }
    return best


#: The dev-machine speedups were 2.16x (E09) and 2.01x (E04); the
#: asserted floors keep headroom below them because the calibration
#: loop (a pure-python spin) cannot fully track machine state for the
#: memory-bound experiment runs — interleaved A/B runs of the same
#: tree swing by several percent on a busy host.  Measured on an
#: *unmodified* baseline checkout, single E04 rounds range
#: 1.73x-1.93x and E09 gate runs range 1.66x-2.0x across a few
#: minutes of drift (the same checkout fails a 1.9 floor in one
#: minute and clears it the next; the low end lands when a CPU-turbo
#: phase speeds the calibration spin more than the memory-bound sim),
#: so each floor sits below the slow end of its band with margin —
#: losing the PR-6 win would read ~1.0-1.2, far below either floor —
#: and the paired rounds keep the best-of from sampling only a slow
#: phase.  The floor is the regression gate; the recorded JSON
#: carries the actual measured speedup.
@pytest.mark.parametrize("module,baseline,rounds,floor", [
    ("e09_fig8a_lenet", BASELINE_E09_SECONDS, 4, 1.6),
    ("e04_fig6_throughput_grid", BASELINE_E04_SECONDS, 3, 1.6),
])
def test_experiment_speedup(module, baseline, rounds, floor):
    """Fast-run wall-clock vs the recorded pre-PR baseline."""
    best = _paired_speedup(module, baseline, rounds)
    payload = {"baseline_seconds": baseline, "baseline_commit": "244c300"}
    payload.update(best)
    _save(module, payload)
    assert best["speedup"] >= floor, (
        "%s: %.2fx speedup below %.1fx floor "
        "(measured %.3fs vs scaled baseline %.3fs)"
        % (module, best["speedup"], floor, best["measured_seconds"],
           best["scaled_baseline_seconds"]))
