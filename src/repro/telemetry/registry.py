"""The mergeable metrics registry and its scope stack (DESIGN.md §4.9).

A :class:`MetricsRegistry` maps hierarchical dotted names
(``lynx.server.<host>.rx.drops``, ``sim.kernel.events_processed``,
``gpu.<id>.occupancy``, ``mqueue.<id>.depth``) to instrument objects.
Components register their instruments at construction time into the
*current* registry (:func:`current`); measurement consumers read them
back by name or take a :meth:`~MetricsRegistry.snapshot` of everything.

Scopes make sweeps mergeable: the executor pushes a fresh registry
around each point (:func:`push_scope` / :func:`scope`), snapshots it
when the point finishes, and merges the snapshot into the parent
registry — the same arithmetic whether the point ran inline or in a
worker process, which is what keeps ``--jobs N`` bit-identical.

Name-collision policy: registering an existing name **replaces** the
old instrument (latest wins), so long-lived root registries do not pin
every testbed a process ever built.  Within one testbed, constructors
are responsible for unique names (they derive them from IPs, mqueue
names, and device indices, which are unique by construction).
"""

from .instruments import (
    Counter,
    DerivedRatio,
    LogHistogram,
    PeakGauge,
    PullCounter,
    PullPeak,
    TimeWeightedGauge,
    materialize,
)

__all__ = ["MetricsRegistry", "current", "push_scope", "pop_scope", "scope",
           "reset_scopes"]


class MetricsRegistry:
    """A named collection of telemetry instruments."""

    def __init__(self):
        self._instruments = {}  # name -> instrument, insertion-ordered

    # -- registration ------------------------------------------------------

    def register(self, name, instrument):
        """Register *instrument* under *name* (replacing any old one)."""
        self._instruments[name] = instrument
        return instrument

    def _get_or_create(self, name, cls, *args):
        inst = self._instruments.get(name)
        if isinstance(inst, cls):
            return inst
        return self.register(name, cls(*args))

    def counter(self, name):
        """Get-or-create a monotonic :class:`Counter` under *name*."""
        return self._get_or_create(name, Counter)

    def peak(self, name):
        """Get-or-create a :class:`PeakGauge` under *name*."""
        return self._get_or_create(name, PeakGauge)

    def histogram(self, name):
        """Get-or-create a :class:`LogHistogram` under *name*."""
        return self._get_or_create(name, LogHistogram)

    def gauge(self, name, clock=None):
        """Get-or-create a :class:`TimeWeightedGauge` under *name*."""
        inst = self._instruments.get(name)
        if isinstance(inst, TimeWeightedGauge):
            return inst
        return self.register(name, TimeWeightedGauge(clock))

    def pull(self, name, fn):
        """Register a :class:`PullCounter` reading *fn()* at snapshot."""
        return self.register(name, PullCounter(fn))

    def pull_peak(self, name, fn):
        """Register a :class:`PullPeak` reading *fn()* at snapshot."""
        return self.register(name, PullPeak(fn))

    def ratio(self, name, num, den):
        """Get-or-create a :class:`DerivedRatio` of two counters by name.

        *num* and *den* are the dotted names of counter instruments in
        this registry (created on demand).  Get-or-create, not replace:
        :meth:`merge` calls this for every incoming ratio snapshot.
        """
        inst = self._instruments.get(name)
        if isinstance(inst, DerivedRatio):
            return inst
        n = self.counter(num)
        d = self.counter(den)
        return self.register(
            name, DerivedRatio(lambda: n.value, lambda: d.value,
                               operands=(num, den)))

    # -- access ------------------------------------------------------------

    def get(self, name, default=None):
        """The live instrument registered under *name*, or *default*."""
        return self._instruments.get(name, default)

    def __contains__(self, name):
        return name in self._instruments

    def __len__(self):
        return len(self._instruments)

    def names(self, prefix=""):
        """Registered names (optionally filtered by dotted prefix)."""
        if not prefix:
            return list(self._instruments)
        return [n for n in self._instruments if _under(n, prefix)]

    # -- snapshot / merge -------------------------------------------------

    def snapshot(self, prefix=""):
        """``{name: instrument.snapshot()}`` in registration order."""
        out = {}
        for name, inst in self._instruments.items():
            if prefix and not _under(name, prefix):
                continue
            out[name] = inst.snapshot()
        return out

    def merge(self, snapshot):
        """Fold a :meth:`snapshot` dict into this registry.

        Names with a live instrument of the same kind merge in place;
        unknown names materialize a fresh accumulator.  A kind clash
        (same name, different instrument family) replaces the live
        instrument with an accumulator holding the incoming data —
        latest schema wins, consistent with the registration policy.
        """
        instruments = self._instruments
        for name, snap in snapshot.items():
            inst = instruments.get(name)
            if inst is not None and inst.kind == snap["kind"]:
                inst.merge(snap)
            elif snap["kind"] == "ratio" and "num" in snap:
                # Re-derive from this registry's own operands (which
                # merge additively) instead of holding one incoming
                # quotient — merged ratios are not sums of ratios.
                self.ratio(name, snap["num"], snap["den"])
            else:
                instruments[name] = materialize(snap)

    def clear(self):
        """Drop every instrument (worker hygiene)."""
        self._instruments.clear()


def _under(name, prefix):
    return name == prefix or name.startswith(prefix + ".") \
        or (prefix.endswith(".") and name.startswith(prefix))


# --------------------------------------------------------------------------
# the scope stack
# --------------------------------------------------------------------------

_root = MetricsRegistry()
_stack = [_root]


def current():
    """The innermost active registry (the root when no scope is open)."""
    return _stack[-1]


def push_scope(registry=None):
    """Open a nested registry scope; returns the new current registry."""
    registry = registry if registry is not None else MetricsRegistry()
    _stack.append(registry)
    return registry


def pop_scope():
    """Close the innermost scope; returns the registry that was popped."""
    if len(_stack) == 1:
        raise RuntimeError("cannot pop the root telemetry scope")
    return _stack.pop()


class scope:
    """``with telemetry.scope() as reg:`` — a scoped registry.

    Implemented as a class (not ``contextlib.contextmanager``) so exits
    remove *this* scope even if a callee leaked an extra push.
    """

    def __init__(self):
        self.registry = MetricsRegistry()

    def __enter__(self):
        push_scope(self.registry)
        return self.registry

    def __exit__(self, exc_type, exc, tb):
        if self.registry in _stack:
            while _stack[-1] is not self.registry:
                _stack.pop()
            _stack.pop()
        return False


def reset_scopes():
    """Forget inherited scopes and all root instruments.

    Worker-process hygiene under the ``fork`` start method: the child
    inherits the parent's scope stack and root registry, including pull
    instruments closed over the parent's live testbeds — none of which
    may leak into the worker's own snapshots.
    """
    del _stack[1:]
    _root.clear()
