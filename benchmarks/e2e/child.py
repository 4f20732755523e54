"""One measured interpreter of the end-to-end benchmark.

Usage: ``python3 child.py WORKLOAD SEED MODE SPAWNED SECONDS``, started
by ``run.py`` with ``PYTHONPATH`` at the checkout's ``src``.  *SPAWNED*
is the parent's ``time.monotonic()`` just before it started this
process.  *MODE* is

* ``import``: set-up time, then one run of the yardstick
  (``reference.py``);
* ``run``: one untimed warm-up repetition of the workload, then timed
  repetitions until *SECONDS* would pass (at least one);
* ``trace``: a warm-up repetition, then one repetition under
  ``cProfile``.

A repetition runs the workload's sweep points (``workloads.py``)
through the program's own ``run_points(points, jobs=1)`` in a fresh
telemetry scope, after a garbage collection so that every repetition
starts alike.  A block of the yardstick runs before and after every
timed repetition, so ``refs`` holds one time more than ``times``.  The
last line of standard output is one JSON record.
"""

import sys
import time

#: a yardstick block lasts this share of the repetition before it
REF_SHARE = 0.25


def main(argv):
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    spawned, seconds = float(argv[4]), float(argv[5])
    import importlib
    import repro
    import workloads
    module = importlib.import_module(workloads.WORKLOADS[workload])
    record = {"setup_s": time.monotonic() - spawned}

    import json
    import os
    import reference
    record["meta"] = _metadata()
    if mode == "import":
        record["refs"] = [reference.block(0.0)]
    else:
        points = workloads.points(workload, module, seed)
        record.update(_repeat(points, seconds, mode == "trace",
                              os.path.dirname(repro.__file__)))
    record["meta"]["threads"] = len(os.listdir("/proc/self/task"))
    print(json.dumps(record))


def _repetition(points, profile=None):
    """Host time, result rows and registry sums of one repetition."""
    import gc
    import json
    from repro import telemetry
    from repro.experiments.sweep import run_points
    import fold

    gc.collect()
    with telemetry.scope() as reg:
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            values = run_points(points, jobs=1)
        finally:
            if profile is not None:
                profile.disable()
        host_s = time.perf_counter() - start
        snapshot = reg.snapshot()
    rows = [{"point": "/".join(str(part) for part in p.key), "value": value}
            for p, value in zip(points, values)]
    return host_s, json.loads(json.dumps(rows)), \
        fold.registry_sums(snapshot)


def _repeat(points, seconds, traced, package_dir):
    """The warm-up repetition, then the timed (or profiled) ones.

    The peak memory is taken after the warm-up repetition, before the
    yardstick first runs, so it is the program's alone.  A repetition
    that raises ends the run; the parent counts the rows it did not
    produce as failed.
    """
    import resource
    import traceback
    import fold
    import reference

    profile = None
    if traced:
        import cProfile
        profile = cProfile.Profile()
    out = {"times": [], "refs": [], "rows": []}
    try:
        host_s, rows, _ = _repetition(points)
        out["rows"].append(rows)
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        start = time.perf_counter()
        out["refs"].append(reference.block(REF_SHARE * host_s))
        while True:
            host_s, rows, sums = _repetition(points, profile)
            out["refs"].append(reference.block(REF_SHARE * host_s))
            out["times"].append(host_s)
            out["rows"].append(rows)
            out.setdefault("sums", sums)
            if traced or time.perf_counter() - start \
                    + (1 + REF_SHARE) * host_s > seconds:
                break
    except Exception:  # reported as failed rows by the parent
        out["error"] = traceback.format_exc()
        return out
    if profile is not None:
        profile.create_stats()
        out["layers"] = fold.fold_profile(profile.stats,
                                          fold.file_layers(package_dir))
    return out


def _metadata():
    import os
    import platform
    import numpy
    from repro.sim.environment import active_backend, resolve_frame_exec
    backend = active_backend()
    return {
        "backend": backend,
        "frame_exec": resolve_frame_exec(backend),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    main(sys.argv)
