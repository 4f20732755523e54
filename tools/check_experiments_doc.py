#!/usr/bin/env python
"""Fail if EXPERIMENTS.md or README.md quotes a number the code never printed.

Every ``## EXX`` section of EXPERIMENTS.md restates its experiment's
fast-preset output in a markdown table.  Prose drifts when the model
changes and the committed artifacts are regenerated but the doc is not
(the E06 and E09 rows once quoted numbers no run had printed).  This
lint checks each *measured* cell against the committed artifact of
the same experiment, ``benchmarks/results/EXX.json``.

Usage::

    python tools/check_experiments_doc.py [DOC] [RESULTS_DIR]

(defaults: ``EXPERIMENTS.md`` and ``benchmarks/results``).  It also
checks the ``README.md`` beside *DOC*, and fails when there is none.

Rules:

* a table belongs to the nearest ``## EXX`` heading above it; tables
  under any other level-2 heading are not checked;
* a column is *measured* unless it is the first (the row label) or its
  header mentions "paper";
* a measured cell is checked only when it is *plain numeric*: one
  number, optionally bold and followed by a unit (``135.0us``,
  ``0.16 ms``, ``**1.00**``, ``12.0x``).  Approximations (``~``),
  ranges (``1.05-1.12``) and cells carrying more than one number are
  skipped;
* a plain cell passes when some numeric value in the JSON artifact
  rounds to the cell's value at the cell's printed precision (``471.9``
  matches 471.94; ``50`` matches 50.0).  Notes and titles do not count:
  they quote the paper's numbers;
* a table that documents another committed run instead of the fast
  preset says so on the line above it, e.g.
  ``<!-- results: benchmarks/results-full-sweep -->`` (a path relative
  to the doc); its cells are checked against that directory only.

README.md's "Headline reproductions" table restates one or two numbers
per experiment in prose cells (``12.0x / 21%``, ``3.51K vs 2.63K``).
Its ``Exp`` column names the artifacts a row quotes (``E02``,
``E10, E11``, ``BRK`` or an ``ABL-*`` study), and *every* number in its
``This repo`` column must print, at its own precision, from one of
them.  A JSON note counts up to where it first names the
paper.  Two suffixes scale: ``30.4K`` also matches 30400, and ``21%``
matches 0.21 or a 1.21x ratio.
"""

import argparse
import json
import os
import re
import sys

_EXP_HEADING = re.compile(r"^##\s+(E\d\d)\b")
_HEADING = re.compile(r"^(#{1,2})\s")
_SEPARATOR = re.compile(r"^\|?\s*:?-{3,}")
_PLAIN = re.compile(r"^(?P<num>[+-]?\d+(?:\.(?P<frac>\d+))?)"
                    r"\s*(?:[A-Za-zµ%][A-Za-zµ% /]*)?$")
_RANGE = re.compile(r"\d\s*[-–]\s*\d")
_SOURCE = re.compile(r"^<!--\s*results:\s*(\S+)\s*-->\s*$")
_README_HEADING = "## Headline reproductions"
_NUMBER = re.compile(r"(?<![\w.])(\d+(?:\.(\d+))?)([K%])?")


def split_row(line):
    """The cells of one markdown table row, stripped."""
    cells = line.strip()
    if cells.startswith("|"):
        cells = cells[1:]
    if cells.endswith("|"):
        cells = cells[:-1]
    return [cell.strip() for cell in cells.split("|")]


def plain_value(cell):
    """``(text, decimals)`` of a plain numeric cell, or None."""
    text = cell.replace("**", "").replace("`", "").strip()
    if "~" in text or _RANGE.search(text):
        return None
    match = _PLAIN.match(text)
    if match is None:
        return None
    frac = match.group("frac")
    return match.group("num").lstrip("+"), len(frac) if frac else 0


def tables(lines):
    """Yield ``(exp_id, source, header, [(lineno, cells)])`` per table
    of an ``## EXX`` section; *source* is the results directory its
    marker names, or None."""
    exp_id = None
    i = 0
    while i < len(lines):
        line = lines[i]
        if _HEADING.match(line):
            match = _EXP_HEADING.match(line)
            exp_id = match.group(1) if match else None
        source = _SOURCE.match(lines[i - 1]) if i else None
        if (exp_id and line.lstrip().startswith("|")
                and i + 1 < len(lines) and _SEPARATOR.match(lines[i + 1])):
            header = split_row(line)
            rows = []
            i += 2
            while i < len(lines) and lines[i].lstrip().startswith("|"):
                rows.append((i + 1, split_row(lines[i])))
                i += 1
            yield exp_id, source and source.group(1), header, rows
            continue
        i += 1


def artifact_numbers(results_dir, exp_id):
    """The numeric values of ``EXX.json`` (floats), or None when it
    does not exist."""
    path = os.path.join(results_dir, exp_id + ".json")
    if not os.path.exists(path):
        return None
    numbers = []
    with open(path) as fh:
        _collect(json.load(fh), numbers)
    return numbers


def _collect(node, out):
    if isinstance(node, bool) or node is None:
        return
    if isinstance(node, (int, float)):
        out.append(float(node))
    elif isinstance(node, dict):
        for value in node.values():
            _collect(value, out)
    elif isinstance(node, list):
        for value in node:
            _collect(value, out)


def matches(text, decimals, numbers):
    """True when some number prints as *text* at *decimals* places."""
    return any("%.*f" % (decimals, value) == text for value in numbers)


def check_doc(doc_path, results_dir):
    """Return ``[(lineno, message)]`` findings for one doc."""
    with open(doc_path) as fh:
        lines = fh.read().splitlines()
    findings = []
    cache = {}
    for exp_id, source, header, rows in tables(lines):
        if source is not None:
            source = os.path.join(os.path.dirname(doc_path), source)
        where = source or results_dir
        measured = [j for j, name in enumerate(header)
                    if j > 0 and "paper" not in name.lower()]
        for lineno, cells in rows:
            for j in measured:
                if j >= len(cells):
                    continue
                plain = plain_value(cells[j])
                if plain is None:
                    continue
                if (where, exp_id) not in cache:
                    cache[where, exp_id] = artifact_numbers(where, exp_id)
                numbers = cache[where, exp_id]
                if numbers is None:
                    findings.append((lineno, "%s: no %s.json in %s"
                                     % (exp_id, exp_id, where)))
                    continue
                text, decimals = plain
                if not matches(text, decimals, numbers):
                    findings.append((lineno, "%s column %r: %r is not in "
                                     "%s" % (exp_id, header[j], cells[j],
                                             os.path.join(where, exp_id)
                                             + ".json")))
    return findings


def _candidates(value, suffix):
    """What an artifact *value* may print as under a cell *suffix*."""
    if suffix == "K":
        return (value, value / 1000.0)
    if suffix == "%":
        return (value * 100.0, (value - 1.0) * 100.0)
    return (value,)


def headline_numbers(results_dir, exp_id):
    """The numbers a README headline row may quote from *exp_id*: the
    artifact's values plus each JSON note's text before it first names
    the paper (``remote GPU adds 8.0us latency (paper: ~8us)``).  None
    when no artifact exists."""
    numbers = artifact_numbers(results_dir, exp_id)
    if numbers is not None:
        with open(os.path.join(results_dir, exp_id + ".json")) as fh:
            for note in json.load(fh).get("notes", ()):
                measured = note.split("paper")[0]
                numbers.extend(float(m.group(1))
                               for m in _NUMBER.finditer(measured))
    return numbers


def check_readme(readme_path, results_dir):
    """Return ``[(lineno, message)]`` findings for README.md's
    headline table (see the module docstring)."""
    if not os.path.exists(readme_path):
        return [(0, "no such file")]
    with open(readme_path) as fh:
        lines = fh.read().splitlines()
    starts = [i for i, line in enumerate(lines)
              if line.startswith(_README_HEADING)]
    if not starts:
        return [(0, "no %r section" % _README_HEADING)]
    i = starts[0] + 1
    while i < len(lines) and not lines[i].lstrip().startswith("|"):
        i += 1
    header = [name.lower() for name in split_row(lines[i])] \
        if i < len(lines) else []
    if "exp" not in header or "this repo" not in header:
        return [(i + 1, "the headline table needs 'Exp' and 'This repo' "
                 "columns")]
    exp_col, repo_col = header.index("exp"), header.index("this repo")
    findings = []
    cache = {}
    i += 2
    while i < len(lines) and lines[i].lstrip().startswith("|"):
        cells = split_row(lines[i])
        ids = re.findall(r"\b(?:E\d\d|BRK|ABL-[A-Z]+)\b", cells[exp_col])
        numbers = []
        for exp_id in ids:
            if exp_id not in cache:
                cache[exp_id] = headline_numbers(results_dir, exp_id)
            if cache[exp_id] is None:
                findings.append((i + 1, "%s: no committed artifact"
                                 % exp_id))
            else:
                numbers.extend(cache[exp_id])
        if not ids:
            findings.append((i + 1, "the row names no experiment"))
        for match in _NUMBER.finditer(cells[repo_col].replace("**", "")):
            text, frac, suffix = match.groups()
            decimals = len(frac) if frac else 0
            if not any("%.*f" % (decimals, c) == text
                       for value in numbers
                       for c in _candidates(value, suffix)):
                findings.append((i + 1, "%r is in no %s artifact"
                                 % (match.group(0), "/".join(ids))))
        i += 1
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("doc", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("results", nargs="?",
                        default=os.path.join("benchmarks", "results"))
    args = parser.parse_args(argv)
    readme = os.path.join(os.path.dirname(args.doc), "README.md")
    findings = [(args.doc, lineno, message)
                for lineno, message in check_doc(args.doc, args.results)]
    findings += [(readme, lineno, message) for lineno, message
                 in check_readme(readme, args.results)]
    for path, lineno, message in findings:
        print("%s:%d: %s" % (path, lineno, message))
    if findings:
        print("\n%d measured cell(s) disagree with the committed results "
              "— regenerate the artifacts or fix the prose" % len(findings))
        return 1
    print("every measured cell in %s and %s matches %s"
          % (args.doc, readme, args.results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
