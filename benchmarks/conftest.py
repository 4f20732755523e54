"""Shared plumbing for the benchmark suite.

Each benchmark runs one paper experiment end to end (workload
generation, both designs, parameter sweep), prints the
paper-vs-measured table to the terminal and saves it under
``benchmarks/results/``.  Those files are the one committed store of
the fixed-seed rows: the tier-1 determinism tests and CI's ``rows`` job
compare fresh runs against them, so re-baselining is rerunning the
suite and committing the diff.  ``REPRO_FULL=1`` switches from the
trimmed fast sweeps to the figures' complete axes and saves under
``benchmarks/results-full-sweep/``; a seed other than 42 saves nothing.
"""

import json
import os

import pytest

from repro.experiments import sweep

#: full sweeps when REPRO_FULL=1, trimmed ones otherwise
FAST = os.environ.get("REPRO_FULL", "") != "1"
SEED = int(os.environ.get("REPRO_SEED", "42"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__),
                           "results" if FAST else "results-full-sweep")


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=None, metavar="N",
        help="fan experiment sweep points across N worker processes "
             "(default: $REPRO_JOBS or 1; results are bit-identical "
             "to a serial run)")


def pytest_configure(config):
    jobs = config.getoption("--jobs", default=None)
    if jobs is not None:
        if jobs < 1:
            raise pytest.UsageError("--jobs must be >= 1")
        sweep.configure(jobs)


def pytest_unconfigure(config):
    sweep.configure(None)


@pytest.fixture
def run_experiment(benchmark, request):
    """Run an experiment module (or an ablation campaign) once under
    pytest-benchmark timing and save its artifacts."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _run(study):
        run = study if callable(study) else study.run
        result = benchmark.pedantic(
            lambda: run(fast=FAST, seed=SEED), rounds=1, iterations=1)
        rendered = result.render()
        if SEED == 42:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            path = os.path.join(RESULTS_DIR, "%s.txt" % result.exp_id)
            with open(path, "w") as fh:
                fh.write(rendered + "\n")
            with open(os.path.join(RESULTS_DIR, "%s.json" % result.exp_id),
                      "w") as fh:
                json.dump(result.to_dict(), fh, indent=2, default=str)
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print()
                print(rendered)
        else:
            print(rendered)
        return result

    return _run
