#!/usr/bin/env python
"""Fail if the timed benchmarks regressed vs their committed baselines.

Usage::

    python tools/check_bench_regression.py BASELINE.json CURRENT.json \
        [--pair BASELINE2.json CURRENT2.json ...] [--threshold 0.15]

Each pair is a (committed baseline, freshly measured) copy of one
benchmark results file — ``benchmarks/results/kernel_throughput.json``,
``benchmarks/results/parallel_sweep.json``, and friends share the same
shape.  Raw wall-clock is machine-dependent, so each experiment
section's ``measured_seconds`` is first divided by that file's own
``machine_speed_factor`` (the calibration-loop ratio the benchmark
records); the check fails when any normalized time grew more than
``--threshold`` (default 15%) over the baseline, across any pair.

Rate sections — the kernel-churn family, which record
``events_per_second`` instead of ``measured_seconds`` — are gated the
same way in the other direction: the rate is *multiplied* by the
machine speed factor (a slow machine under-measures rates just as it
over-measures times) and the check fails when the normalized rate
*dropped* more than the threshold.  Sections that record a
machine-independent ``best_ratio`` (interleaved A/B pairs) need no
normalization and are gated on the ratio directly.

Sections present on only one side are skipped with a note — a freshly
added benchmark has no baseline to regress against.
"""

import argparse
import json
import sys


def _normalized_seconds(section):
    measured = section.get("measured_seconds")
    factor = section.get("machine_speed_factor")
    if measured is None or not factor:
        return None
    return measured / factor


def _normalized_rate(section):
    """Machine-normalized throughput of a rate section, or None.

    Rates scale *down* on slow machines, so they multiply by the speed
    factor where times divide by it.  ``best_ratio`` sections (A/B
    rate ratios from interleaved pairs) are machine-independent and
    pass through unscaled.
    """
    ratio = section.get("best_ratio")
    if ratio is not None:
        return float(ratio)
    rate = section.get("events_per_second")
    factor = section.get("machine_speed_factor")
    if rate is None or not factor:
        return None
    return rate * factor


def compare(baseline, current, threshold):
    """Return a list of (section, base_norm, cur_norm, ratio) failures.

    *ratio* is always oriented so that > 1 means "got worse": elapsed
    current/baseline for timed sections, baseline/current for rates.
    """
    failures = []
    for name, base_section in baseline.items():
        cur_section = current.get(name)
        base_norm = _normalized_seconds(base_section)
        if base_norm is not None:
            if cur_section is None:
                print("note: section %r missing from current results" % name)
                continue
            cur_norm = _normalized_seconds(cur_section)
            if cur_norm is None:
                print("note: section %r has no timing in current results"
                      % name)
                continue
            ratio = cur_norm / base_norm
            status = "FAIL" if ratio > 1.0 + threshold else "ok"
            print("%-32s baseline %8.3fs  current %8.3fs  ratio %.3f  %s"
                  % (name, base_norm, cur_norm, ratio, status))
            if ratio > 1.0 + threshold:
                failures.append((name, base_norm, cur_norm, ratio))
            continue
        base_rate = _normalized_rate(base_section)
        if base_rate is None:
            continue  # neither timed nor rate-based: nothing to gate
        if cur_section is None:
            print("note: section %r missing from current results" % name)
            continue
        cur_rate = _normalized_rate(cur_section)
        if cur_rate is None:
            print("note: section %r has no rate in current results" % name)
            continue
        ratio = base_rate / cur_rate
        status = "FAIL" if ratio > 1.0 + threshold else "ok"
        if "best_ratio" in base_section:
            print("%-32s baseline %9.2fx   current %9.2fx   drop %.3f  %s"
                  % (name, base_rate, cur_rate, ratio, status))
        else:
            print("%-32s baseline %8.0f/s  current %8.0f/s  drop %.3f  %s"
                  % (name, base_rate, cur_rate, ratio, status))
        if ratio > 1.0 + threshold:
            failures.append((name, base_rate, cur_rate, ratio))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark results json")
    parser.add_argument("current", help="freshly measured results json")
    parser.add_argument("--pair", nargs=2, action="append", default=[],
                        metavar=("BASELINE", "CURRENT"),
                        help="additional baseline/current file pair "
                             "(repeatable)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional slowdown (default 0.15)")
    args = parser.parse_args(argv)

    failures = []
    for base_path, cur_path in [(args.baseline, args.current)] + args.pair:
        with open(base_path) as fh:
            baseline = json.load(fh)
        with open(cur_path) as fh:
            current = json.load(fh)
        print("-- %s vs %s" % (base_path, cur_path))
        failures.extend(compare(baseline, current, args.threshold))

    if failures:
        for name, base_norm, cur_norm, ratio in failures:
            print("regression: %s is %.1f%% worse than baseline "
                  "(%.3f -> %.3f, machine-normalized)"
                  % (name, (ratio - 1.0) * 100.0, base_norm, cur_norm),
                  file=sys.stderr)
        return 1
    print("no benchmark regressions beyond %.0f%%" % (args.threshold * 100.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
