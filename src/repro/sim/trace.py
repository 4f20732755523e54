"""Lightweight event tracing for debugging and latency breakdowns.

Tracing is off by default (zero overhead beyond a truthiness check).
When enabled, channels and components emit uniform
``(time, channel, event, msg_id, detail)`` rows — the Channel layer's
trace schema (DESIGN.md §4.7) — so one message can be followed across
hops by its ``msg_id``.  Records past ``Tracer.limit`` (default
:data:`LIMIT`) are counted in
``tracer.dropped`` instead of vanishing silently, and :meth:`format`
warns once when the buffer overflowed.
"""

import warnings

from .. import telemetry

#: tracers constructed with ``enabled=True``, newest last (bounded);
#: lets the experiments CLI collect records from testbeds it never
#: sees directly (``--trace-channel``).
_MAX_ENABLED = 64
_enabled_tracers = []

#: records a tracer keeps before it starts counting drops
LIMIT = 100000


def enabled_tracers():
    """Snapshot of recently-constructed enabled tracers."""
    return list(_enabled_tracers)


def clear_enabled_tracers():
    del _enabled_tracers[:]


class Tracer:
    """Collects trace records; disabled unless ``enabled`` is True."""

    def __init__(self, env, enabled=False):
        self.env = env
        self.enabled = enabled
        self.limit = LIMIT
        self.records = []
        #: records rejected because the buffer hit ``limit``
        self.dropped = 0
        self._overflow_warned = False
        self._drop_counter = None
        if enabled:
            # Drops also count into the telemetry registry; the counter
            # binds to the scope active at construction, alongside the
            # testbed whose channels this tracer observes.
            self._drop_counter = telemetry.registry().counter(
                "sim.trace.dropped")
            if len(_enabled_tracers) >= _MAX_ENABLED:
                del _enabled_tracers[0]
            _enabled_tracers.append(self)

    def emit(self, channel, event, msg_id=None, detail=None):
        if not self.enabled:
            return
        if len(self.records) >= self.limit:
            self.dropped += 1
            self._drop_counter.inc()
            return
        self.records.append((self.env.now, channel, event, msg_id, detail))

    def filter(self, channel=None, event=None, contains=None):
        """Records matching the given channel/event names.

        ``channel`` matches exactly; ``contains`` matches any record
        whose channel name contains the substring (CLI filtering).
        """
        out = []
        for rec in self.records:
            if channel is not None and rec[1] != channel:
                continue
            if event is not None and rec[2] != event:
                continue
            if contains is not None and contains not in rec[1]:
                continue
            out.append(rec)
        return out

    def format(self, max_rows=50):
        lines = []
        for when, channel, event, msg_id, detail in self.records[:max_rows]:
            lines.append("%12.3fus %-20s %-16s %-8s %s" % (
                when, channel, event,
                "" if msg_id is None else msg_id,
                "" if detail is None else detail))
        if self.dropped:
            if not self._overflow_warned:
                self._overflow_warned = True
                warnings.warn(
                    "tracer dropped %d records past limit=%d "
                    "(telemetry counter: sim.trace.dropped)"
                    % (self.dropped, self.limit), RuntimeWarning,
                    stacklevel=2)
            lines.append("... %d records dropped past limit=%d ..."
                         % (self.dropped, self.limit))
        return "\n".join(lines)


class NullTracer:
    """A tracer that drops everything (default wiring)."""

    enabled = False
    dropped = 0

    def emit(self, channel, event, msg_id=None, detail=None):
        pass

    def filter(self, channel=None, event=None, contains=None):
        return []
