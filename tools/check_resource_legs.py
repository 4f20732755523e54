#!/usr/bin/env python
"""Fail if model code claims a core or a channel issue slot by hand.

A core leg (request a pool core, charge the LLC-adjusted duration,
release) belongs to ``repro/hw/cpu.py``: ``CorePool.run_calibrated`` /
``run_compute`` for generators, ``CorePool.run_then`` for callback
state machines.  A channel hop (issue slot, occupancy, release, stats,
trace, latency) belongs to ``repro/sim/``: ``Channel.transfer`` /
``Channel.transfer_then``.  Open-coded copies drift from the one
implementation — DESIGN.md §4.6 records the four that stopped emitting
``xfer`` trace records — so this lint keeps them from coming back.

Usage::

    python tools/check_resource_legs.py [SRC_DIR]

Flags every ``._res.request(`` or ``.issue.request(`` under ``SRC_DIR``
(default ``src/repro``) outside ``sim/`` and ``hw/cpu.py``.  A
deliberate exception (e.g. the fault injector seizing every core of a
pool) is marked with ``# lint: allow-resource-leg`` on the line.
"""

import argparse
import os
import re
import sys

ALLOW_MARKER = "lint: allow-resource-leg"

_LEG = re.compile(r"\._res\.request\(|\.issue\.request\(")


def check_module(path):
    """Return [(lineno, message)] findings for one source file."""
    findings = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            match = _LEG.search(line)
            if match and ALLOW_MARKER not in line:
                findings.append((lineno, "open-coded resource leg %r: use "
                                 "CorePool.run_then/run_calibrated or "
                                 "Channel.transfer_then/transfer"
                                 % match.group(0)))
    return findings


def iter_sources(src_dir):
    """Python files under *src_dir*, minus ``sim/`` and ``hw/cpu.py``."""
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__"
                             and not (dirpath == src_dir and d == "sim"))
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            if os.path.relpath(path, src_dir) == os.path.join("hw", "cpu.py"):
                continue
            yield path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", nargs="?",
                        default=os.path.join("src", "repro"))
    args = parser.parse_args(argv)
    if not os.path.isdir(args.src_dir):
        print("no source directory at %r" % args.src_dir, file=sys.stderr)
        return 2
    failures = 0
    for path in iter_sources(args.src_dir):
        for lineno, message in check_module(path):
            print("%s:%d: %s" % (path, lineno, message))
            failures += 1
    if failures:
        print("\n%d open-coded resource leg(s) found (see DESIGN.md §4.6)"
              % failures, file=sys.stderr)
        return 1
    print("no open-coded core or channel legs outside sim/ and hw/cpu.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
