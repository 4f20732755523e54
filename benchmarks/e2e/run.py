"""End-to-end benchmark of the simulator on four experiment workloads.

Each workload run is one fresh interpreter (``child.py``) that imports
the experiment, runs one untimed warm-up repetition of the workload's
sweep points (``workloads.py``) and then times repetitions until its
time budget is spent.  Each repetition is scaled by the machine-speed
yardstick timed around it (``reference.py``), and the run reports the
median.  This process only starts interpreters one after another,
checks their rows and folds their records.  Commands::

    run.py --workload W --seed N --seconds S --trace 0|1
        one measured run of one workload; the last line of standard
        output is the JSON result (end-to-end metrics with --trace 0,
        per-layer metrics with --trace 1)
    run.py set --seed N [--runs 3] [--sets 1] [--seconds S] [--trace]
               [--out FILE]
        sets of runs, workloads interleaved round-robin; prints every
        end-to-end metric per workload and writes the result file
    run.py compare BASE NEW
        the first set of BASE against the last set of NEW, per
        workload and metric, with a verdict against the metric's bound
    run.py expect --seed N
        writes expected/<workload>.seed<N>.json from one run each

See README.md for the workloads, the layer map and the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import fold
import reference
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
EXPECTED_DIR = os.path.join(HERE, "expected")

#: (name, unit, better, bound): the bound is the share of the base
#: median by which the metric may worsen before it is a regression.
#: Times are host seconds scaled to the baseline machine's speed (see
#: :func:`scaled`); memory repeats within 2%.
END_TO_END = (
    ("scaled_wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("scaled_responses_per_host_s", "responses/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better) of the traced run's per-layer metrics
PER_LAYER = tuple(
    metric for layer in fold.LAYERS for metric in (
        (layer + ".self_share", "share", "lower"),
        (layer + ".self_s", "s", "lower"),
        (layer + ".calls_in", "count", "lower"),
    )) + (
        ("trace.overhead", "ratio", "lower"),
        ("host.wall_s", "s", "lower"),
        ("host.reference_s", "s", "lower"),
    ) + fold.COUNT_METRICS

#: measuring seconds of one run, as BENCHMARK.json's run_seconds
RUN_SECONDS = 24
#: set-up time is the median of this many interpreters
SETUP_SAMPLES = 5
#: runs of each workload in a set
RUNS_PER_SET = 3
#: paired runs a ``better`` verdict needs
MIN_PAIRS = 10
#: seed whose expected rows give the point names for unknown seeds
REFERENCE_SEED = 42
#: no interpreter may outlive this, a traced run included
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A workload run that produced no record."""


# --------------------------------------------------------------------------
# interpreters
# --------------------------------------------------------------------------

def spawn(workload, seed, mode, seconds=0.0):
    """Start one interpreter, wait for it and return its record."""
    env = dict(os.environ)
    env.pop("REPRO_JOBS", None)  # run_points gets jobs=1; no nested pools
    env["PYTHONPATH"] = SRC
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, str(seed), mode, repr(start),
             repr(float(seconds))],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s run exceeded %d s"
                         % (workload, mode, CHILD_TIMEOUT_S)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s %s run failed (exit %d):\n%s"
                         % (workload, mode, proc.returncode,
                            proc.stderr[-2000:]))
    record = json.loads(lines[-1])
    if "error" in record:
        sys.stderr.write("%s repetition raised:\n%s" % (workload,
                                                        record["error"]))
    if mode != "import" and not record["times"]:
        raise BenchError("%s %s run timed no repetition" % (workload, mode))
    return record


def check_sources():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError("no repro sources under %s" % SRC)


# --------------------------------------------------------------------------
# correctness
# --------------------------------------------------------------------------

def expected_path(workload, seed):
    return os.path.join(EXPECTED_DIR, "%s.seed%d.json" % (workload, seed))


def load_expected(workload, seed):
    path = expected_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["rows"]


def check_rows(workload, seed, records):
    """``(ops, ops_failed)`` over the repetitions of *records*, all of
    one seed.

    With an expected file, each repetition's rows must equal it.
    Without one, every repetition must equal the first, whose point
    names must match the reference seed's.  A record whose repetition
    raised fails every row of that repetition.
    """
    expected = load_expected(workload, seed)
    reference_rows = load_expected(workload, REFERENCE_SEED)
    ops = failed = raised = 0
    first = None
    for record in records:
        raised += "error" in record
        for rows in record["rows"]:
            ops += len(rows)
            if expected is not None:
                failed += fold.failed_rows(expected, rows)
            elif first is None:
                first = rows
                if reference_rows is not None:
                    failed += fold.misshapen_rows(reference_rows, rows)
            else:
                failed += fold.failed_rows(first, rows)
    lost = raised * len(expected or reference_rows or first or [None])
    return ops + lost, failed + lost


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def scaled(times, refs):
    """Host *times* in seconds of the baseline machine.

    ``refs[k]`` and ``refs[k + 1]`` are the yardstick's times just before
    and just after ``times[k]``; their mean says how fast the machine ran
    then, against :data:`reference.NOMINAL_S`.  Load from other tenants
    slows both alike and cancels; a change to the program moves only the
    repetition.
    """
    return [t * reference.NOMINAL_S / ((before + after) / 2.0)
            for t, before, after in zip(times, refs, refs[1:])]


def end_to_end(record, setup_s):
    """End-to-end metric values of one run record: the median scaled
    repetition, the responses of one repetition over it, the run's peak
    memory and the median scaled set-up time *setup_s*."""
    wall_s = statistics.median(scaled(record["times"], record["refs"]))
    return {
        "scaled_wall_s": wall_s,
        "setup_s": setup_s,
        "scaled_responses_per_host_s":
            fold.responses(record["sums"]) / wall_s,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def scaled_setup(record):
    """Set-up time of one interpreter, scaled by its first yardstick."""
    return record["setup_s"] * reference.NOMINAL_S / record["refs"][0]


def per_layer(run_record, trace_record, wall_s):
    """Per-layer metric values: the traced run's layer table, scaled to
    the untraced median scaled repetition *wall_s*, the unscaled host
    times, and the registry counts of one untraced repetition."""
    layers = trace_record["layers"]
    total = sum(entry["self_s"] for entry in layers.values())
    values = {}
    for layer in fold.LAYERS:
        share = layers[layer]["self_s"] / total
        values[layer + ".self_share"] = share
        values[layer + ".self_s"] = share * wall_s
        values[layer + ".calls_in"] = \
            layers[layer]["calls_in"] / len(trace_record["times"])
    values["trace.overhead"] = statistics.median(
        scaled(trace_record["times"], trace_record["refs"])) / wall_s
    values["host.wall_s"] = statistics.median(run_record["times"])
    values["host.reference_s"] = statistics.median(run_record["refs"])
    values.update(fold.fold_registry(run_record["sums"], wall_s))
    return values


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` cuts them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    """``better``, ``worse``, ``same`` or ``unresolved`` for run values
    *new* against *base*.

    Worse: the median worsens by more than *bound*.  Better: at least
    :data:`MIN_PAIRS` pairs (run i against run i), the new runs win at
    least nine tenths of them (ties count for neither), and the median
    improves by more than the base's quartile spread.  Unresolved: the
    base's spread is wider than *bound*, unless every new run beats
    every base run.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    gain = sign * (new_median - base_median) / base_median
    beats_all = all(sign * (n - b) > 0 for n in new for b in base)
    if (q3 - q1) / base_median > bound and not beats_all:
        return "unresolved"
    if gain < -bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) \
            and gain > 0 and abs(new_median - base_median) > q3 - q1:
        return "better"
    return "same"


def result_line(ops, failed, values, specs):
    return json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in specs},
    })


def describe(record):
    times = record["times"]
    meta = record["meta"]
    return ("%d reps  host median %.3f s [%.3f, %.3f]  scaled median "
            "%.3f s  reference %.4f s  rss %.1f MB  backend %s  "
            "frame_exec %s  threads %d/%d"
            % (len(times), statistics.median(times), min(times), max(times),
               statistics.median(scaled(times, record["refs"])),
               statistics.median(record["refs"]), record["peak_rss_mb"],
               meta["backend"], meta["frame_exec"], meta["threads"],
               meta["nproc"]))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def measured_run(workload, seed, seconds):
    """One untraced run: its record and end-to-end values."""
    record = spawn(workload, seed, "run", seconds)
    setup = [scaled_setup(record)]
    while len(setup) < SETUP_SAMPLES:
        setup.append(scaled_setup(spawn(workload, seed, "import")))
    return record, end_to_end(record, statistics.median(setup))


def measure(argv):
    """One measured run of one workload: the command BENCHMARK.json
    names."""
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_sources()
    w, seed = args.workload, args.seed

    record, values = measured_run(w, seed, args.seconds)
    print("run: %s" % describe(record))
    if not args.trace:
        ops, failed = check_rows(w, seed, [record])
        print(result_line(ops, failed, values, END_TO_END))
        return 0

    traced = spawn(w, seed, "trace")
    if "error" in traced:
        raise BenchError("traced repetition of %s raised" % w)
    print("traced: %s" % describe(traced))
    ops, failed = check_rows(w, seed, [record, traced])
    values = per_layer(record, traced, values["scaled_wall_s"])
    print(result_line(ops, failed, values, PER_LAYER))
    return 0


def run_set(seed, runs, seconds, traced):
    """One set: *runs* runs of each workload, round-robin, then one
    traced run of each when *traced*."""
    for w in WORKLOADS:
        spawn(w, seed, "import")  # warm-up
    records = {w: [] for w in WORKLOADS}
    values = {w: [] for w in WORKLOADS}
    for i in range(runs):
        for w in WORKLOADS:
            record, run_values = measured_run(w, seed, seconds)
            print("%-17s run %d: %s" % (w, i + 1, describe(record)),
                  flush=True)
            records[w].append(record)
            values[w].append(dict(run_values, meta=record["meta"],
                                  reps=len(record["times"])))
    traces = {}
    for w in WORKLOADS if traced else ():
        traces[w] = spawn(w, seed, "trace")
        print("%-17s traced: %s" % (w, describe(traces[w])), flush=True)
    doc = {"seed": seed, "runs": runs, "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        ops, failed = check_rows(w, seed, records[w] + (
            [traces[w]] if w in traces else []))
        entry = doc["workloads"][w] = {
            "ops": ops, "ops_failed": failed, "runs": values[w],
        }
        if w in traces and "error" not in traces[w]:
            wall_s = statistics.median(run["scaled_wall_s"]
                                       for run in values[w])
            entry["layers"] = per_layer(records[w][0], traces[w], wall_s)
    return doc


def print_set(doc):
    print("seed %d, %d run(s) of %d s per workload"
          % (doc["seed"], doc["runs"], doc["seconds"]))
    print("%-17s %-25s %-12s %12s %12s %12s %3s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "n"))
    for w, entry in doc["workloads"].items():
        for name, unit, _, _ in END_TO_END:
            q1, med, q3 = quartiles([run[name] for run in entry["runs"]])
            print("%-17s %-25s %-12s %12.4f %12.4f %12.4f %3d" % (
                w, name, unit, med, q1, q3, len(entry["runs"])))
        print("%-17s %-25s %-12s %12d" % (w, "ops", "rows", entry["ops"]))
        print("%-17s %-25s %-12s %12d" % (w, "ops_failed", "rows",
                                          entry["ops_failed"]))
    for w, entry in doc["workloads"].items():
        if "layers" not in entry:
            continue
        layers = entry["layers"]
        print("\n%s traced (overhead %.2fx): layer, self_share, self_s, "
              "calls_in" % (w, layers["trace.overhead"]))
        for layer in fold.LAYERS:
            print("  %-15s %8.4f %9.3f %14.0f" % (
                layer, layers[layer + ".self_share"],
                layers[layer + ".self_s"], layers[layer + ".calls_in"]))


def machine():
    """The host a result file was measured on (each run's own metadata
    holds the versions and modes it ran with)."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def set_command(argv):
    parser = argparse.ArgumentParser(prog="run.py set")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--runs", type=int, default=RUNS_PER_SET)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", action="store_true",
                        help="one traced run of each workload per set")
    parser.add_argument("--out", default=os.path.join(HERE, "results",
                                                      "set.json"))
    args = parser.parse_args(argv)
    if args.runs < 1 or args.sets < 1:
        parser.error("--runs and --sets must be at least 1")
    check_sources()
    docs = []
    for _ in range(args.sets):
        docs.append(run_set(args.seed, args.runs, args.seconds, args.trace))
        print_set(docs[-1])
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"machine": machine(), "sets": docs}, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % args.out)
    failed = sum(e["ops_failed"] for d in docs for e in d["workloads"].values())
    return 1 if failed else 0


def compare_command(argv):
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)["sets"][0]
    with open(args.new) as fh:
        new = json.load(fh)["sets"][-1]
    print("%-17s %-25s %-11s %30s %30s %7s  %s" % (
        "workload", "metric", "unit", "base median [q1, q3]",
        "new median [q1, q3]", "new/base", "verdict"))
    worse = 0
    for w, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(w)
        if new_entry is None:
            continue
        for name, unit, better, bound in END_TO_END:
            a = [run[name] for run in base_entry["runs"]]
            b = [run[name] for run in new_entry["runs"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            call = verdict(a, b, better, bound)
            worse += call == "worse"
            print("%-17s %-25s %-11s %30s %30s %7.3f  %s (bound %d%%, n=%d/%d)"
                  % (w, name, unit, _fmt_q(qa), _fmt_q(qb), qb[1] / qa[1],
                     call, round(bound * 100), len(a), len(b)))
        print("%-17s %-25s %-11s %30s %30s" % (
            w, "ops_failed", "rows", base_entry["ops_failed"],
            new_entry["ops_failed"]))
    return 1 if worse else 0


def _fmt_q(q):
    return "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])


def expect_command(argv):
    parser = argparse.ArgumentParser(prog="run.py expect")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    check_sources()
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for w, module in WORKLOADS.items():
        record = spawn(w, args.seed, "run")
        if "error" in record:
            raise BenchError("a repetition of %s raised" % w)
        rows = record["rows"][0]
        if any(fold.failed_rows(rows, other) for other in record["rows"]):
            raise BenchError("the repetitions of %s disagree" % w)
        with open(expected_path(w, args.seed), "w") as fh:
            json.dump({"workload": w, "module": module, "seed": args.seed,
                       "rows": rows}, fh, indent=1)
            fh.write("\n")
        print("%s: %d rows, %s" % (w, len(rows), describe(record)))
    return 0


COMMANDS = {"set": set_command, "compare": compare_command,
            "expect": expect_command}


def main(argv):
    command = COMMANDS.get(argv[0]) if argv else None
    try:
        if command is not None:
            return command(argv[1:])
        return measure(argv)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
