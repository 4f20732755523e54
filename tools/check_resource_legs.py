#!/usr/bin/env python
"""Fail if model code occupies a slot or drives the schedule by hand.

A core leg (request a pool core, charge the LLC-adjusted duration,
release) belongs to ``repro/hw/cpu.py``: ``CorePool.run_calibrated`` /
``run_compute`` for generators, ``CorePool.run_then`` for callback
state machines.  A channel hop (issue slot, occupancy, release, stats,
trace, latency) belongs to ``repro/sim/``: ``Channel.transfer`` /
``Channel.transfer_then``.  Open-coded copies drift from the one
implementation — DESIGN.md §4.6 records the four that stopped emitting
``xfer`` trace records — so this lint keeps them from coming back.

The schedule itself belongs to ``repro/sim/`` too (DESIGN.md §4.1): a
callback state machine steps with ``Environment.defer`` and
``Store.get_then``, and triggers an event with ``Event.succeed``, never
by pushing a heap entry or reading the event-id counter, and never by
hanging its callback on a fresh ``get()`` or ``timeout()`` event.

A blocking ``Store.put`` returns an event that fires once the item is
accepted.  Called as a bare statement, nobody waits on that event, so
its schedule entry is a completion no one listens to (DESIGN.md §4.6):
``try_put`` accepts the item without one.

The cyclic collector belongs to ``repro/sim/`` and the sweep's point and
trial boundaries (``experiments/sweep.py``, DESIGN.md §4.8): any other
collection in the middle of a point would promote the live testbed out
of generation 0, and the boundary's closing collection would then miss
it.

Usage::

    python tools/check_resource_legs.py [SRC_DIR]

Flags, under ``SRC_DIR`` (default ``src/repro``) outside ``sim/``:

* ``._res.request(`` / ``.issue.request(`` (``hw/cpu.py`` exempt);
* ``heappush(`` onto a ``._queue`` and any ``._eid`` use;
* ``.get().callbacks.append(`` and ``.timeout(...).callbacks.append(``;
* a ``.put(...)`` call that is a whole statement (its event discarded);
* ``gc.collect(`` / ``gc.disable(`` / ``gc.enable(`` / ``gc.freeze(``
  (``experiments/sweep.py`` exempt).

A deliberate exception (e.g. the fault injector seizing every core of a
pool) is marked with ``# lint: allow-resource-leg`` on the line.
"""

import argparse
import os
import re
import sys

ALLOW_MARKER = "lint: allow-resource-leg"

#: (pattern, advice, files exempt besides ``sim/``)
RULES = (
    (re.compile(r"\._res\.request\(|\.issue\.request\("),
     "open-coded resource leg %r: use CorePool.run_then/run_calibrated "
     "or Channel.transfer_then/transfer", (os.path.join("hw", "cpu.py"),)),
    (re.compile(r"heappush\(\s*[\w.]*\._queue\b|\._eid\b"),
     "hand-driven schedule %r: use Event.succeed or Environment.defer",
     ()),
    (re.compile(r"\.get\(\)\.callbacks\.append\("
                r"|\.timeout\(.*\)\.callbacks\.append\("),
     "event-borne callback %r: use Store.get_then or Environment.defer",
     ()),
    (re.compile(r"^\s*[\w.\[\]]+\.put\("),
     "discarded put event %r: use try_put, which schedules no completion",
     ()),
    (re.compile(r"\bgc\.(?:collect|disable|enable|freeze)\("),
     "collector control %r: the sweep's point boundary owns the collector",
     (os.path.join("experiments", "sweep.py"),)),
)


def check_module(path, relpath=None):
    """Return [(lineno, message)] findings for one source file.

    *relpath* (the file's path below the source root) skips the rules
    that exempt it.
    """
    rules = [(pattern, advice) for pattern, advice, exempt in RULES
             if relpath not in exempt]
    findings = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if ALLOW_MARKER in line:
                continue
            for pattern, advice in rules:
                match = pattern.search(line)
                if match:
                    findings.append((lineno,
                                     advice % match.group(0).strip()))
    return findings


def iter_sources(src_dir):
    """Python files under *src_dir*, minus ``sim/``."""
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__"
                             and not (dirpath == src_dir and d == "sim"))
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def check_tree(src_dir):
    """Return [(path, lineno, message)] findings under *src_dir*."""
    findings = []
    for path in iter_sources(src_dir):
        rel = os.path.relpath(path, src_dir)
        for lineno, message in check_module(path, rel):
            findings.append((path, lineno, message))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", nargs="?",
                        default=os.path.join("src", "repro"))
    args = parser.parse_args(argv)
    if not os.path.isdir(args.src_dir):
        print("no source directory at %r" % args.src_dir, file=sys.stderr)
        return 2
    findings = check_tree(args.src_dir)
    for path, lineno, message in findings:
        print("%s:%d: %s" % (path, lineno, message))
    if findings:
        print("\n%d open-coded resource leg(s), schedule or collector "
              "access(es) found (see DESIGN.md §4.1, §4.6, §4.8)"
              % len(findings), file=sys.stderr)
        return 1
    print("no open-coded legs, schedule or collector access outside sim/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
