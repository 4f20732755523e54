"""Experiment harness plumbing.

Every paper table/figure has a module here exposing::

    run(fast=True, seed=42) -> ExperimentResult

``fast`` trims sweep points and measurement windows so the whole bench
suite runs in minutes; the full sweep reproduces each figure's complete
axis.  Results carry rows (dicts) plus the paper's reference numbers so
benchmarks can print paper-vs-measured tables and assert on shape.
"""


class ExperimentResult:
    """Rows + metadata from one experiment run."""

    def __init__(self, exp_id, title, paper_ref):
        self.exp_id = exp_id
        self.title = title
        self.paper_ref = paper_ref
        self.rows = []
        self.notes = []
        #: merged telemetry snapshot for the whole run (DESIGN.md §4.9);
        #: attached by the CLI, empty when the experiment ran bare
        self.metrics = {}

    def add(self, **fields):
        self.rows.append(fields)
        return fields

    def note(self, text):
        self.notes.append(text)

    def column(self, name):
        return [row[name] for row in self.rows]

    def find(self, **match):
        """First row whose fields include all of *match*."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError("no row matching %r" % (match,))

    def table(self):
        """Human-readable table (printed by the benchmarks)."""
        if not self.rows:
            return "(no rows)"
        # Union of all rows' keys, in first-seen order: later rows may
        # introduce columns the first row lacks (e.g. knee summaries).
        columns = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        widths = {c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in self.rows))
                  for c in columns}
        lines = []
        header = "  ".join(str(c).ljust(widths[c]) for c in columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c])
                                   for c in columns))
        return "\n".join(lines)

    def attach_metrics(self, snapshot):
        """Attach the run's merged telemetry snapshot (name -> snap)."""
        self.metrics = dict(snapshot)
        return self

    def metric(self, name, field="value"):
        """One field from an attached metric snapshot (KeyError if absent)."""
        return self.metrics[name][field]

    def to_dict(self, include_metrics=False):
        """JSON-serializable form (written next to the text tables).

        Metrics stay out by default: the golden serial-vs-parallel
        identity checks compare ``to_dict()`` and wall-clock metrics
        (``sim.kernel.wall_seconds``) are host-dependent.
        """
        out = {
            "exp_id": self.exp_id,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "rows": self.rows,
            "notes": self.notes,
        }
        if include_metrics:
            out["metrics"] = self.metrics
        return out

    def render(self):
        """Full report block: title, table, notes."""
        parts = ["[%s] %s  (%s)" % (self.exp_id, self.title, self.paper_ref),
                 self.table()]
        for note in self.notes:
            parts.append("note: %s" % note)
        return "\n".join(parts)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        if abs(value) >= 10:
            return "%.1f" % value
        return "%.2f" % value
    return str(value)


def krps(per_sec):
    """Requests/s -> Kreq/s, rounded for table display."""
    return round(per_sec / 1000.0, 2)
