"""Exact work budgets: CPython opcodes run inside ``Environment.run``.

``test_event_budget.py`` pins how many events a scenario schedules; it
does not see how much work each event does.  This meter counts the
bytecode instructions that run inside ``Environment.run`` (a
``sys.settrace`` hook with ``f_trace_opcodes`` set on every frame), so
a change that makes each event dearer shows here as a change in a pure
count, not as wall-clock on a shared machine.  The same scenario and
interpreter give the same count on every run.

Limits: the count sees no C-level work (``heapq``, numpy, dict growth),
so a change that moves Python work into C reads as a win, and the
numbers are bound to one CPython minor version (bytecode differs
between versions).  The meter catches regressions; a speed claim still
needs a wall-clock pair measured on one machine.

Each pin allows :data:`TOLERANCE` upward.  A change that moves a count
on purpose, either way past the tolerance, re-pins it and says why in
CHANGES.md, as for the event budget.
"""

import sys

import pytest

from repro import Testbed, telemetry
from repro.apps.memcached import MemcachedServer, encode_get, encode_set
from repro.config import XEON_VMA
from repro.net import ClientPopulation, PayloadPool, PoissonPopulation
from repro.net.packet import Address
from repro.sim import Environment

from .test_event_budget import (
    _lynx_ingress,
    _memcached_closed_loop,
    _population_into_mute_sink,
)

#: share a count may rise above its pin before the test fails
TOLERANCE = 0.02

#: ``(opcodes, events)`` per scenario, by CPython ``(major, minor)``
PINS = {
    (3, 11): {
        "lynx_ingress": (971212, 3805),
        "memcached_closed_loop": (2585762, 9784),
        "population_into_mute_sink": (11697119, 10005),
        "population_into_memcached": (1774974, 6794),
    },
}


def _population_into_memcached():
    """One population at 0.2/us, in the default 1 us frames, into a
    two-core host memcached with Zipf-hot GETs for 4 ms: single-arrival
    frames, one-item landings and idle-core claims (E17's memcached
    trial, shortened)."""
    with telemetry.scope():
        tb = Testbed(seed=42)
        env = tb.env
        host = tb.machine("10.0.0.1")
        server = MemcachedServer(env, host.nic, host.pool(count=2, name="mc"),
                                 XEON_VMA)
        for i in range(64):
            server.store.execute(encode_set(b"key-%d" % i, b"v" * 32))
        gets = [encode_get(b"key-%d" % i) for i in range(64)]
        pop = ClientPopulation(
            env, tb.network, "10.0.9.1", Address("10.0.0.1", 11211),
            PoissonPopulation(0.2, tb.rng.stream("population")),
            PayloadPool.zipf(gets, tb.rng.stream("population.keys")),
            timeout=500.0)
        tb.run(until=4000.0)
        pop.flush()
        return env.events_processed, pop.responses.count


SCENARIOS = {
    "lynx_ingress": _lynx_ingress,
    "memcached_closed_loop": _memcached_closed_loop,
    "population_into_mute_sink": _population_into_mute_sink,
    "population_into_memcached": _population_into_memcached,
}


def count_opcodes(scenario, monkeypatch):
    """Run *scenario*; return ``(opcodes inside Environment.run, events)``."""
    total = [0]

    def local(frame, event, _arg):
        if event == "opcode":
            total[0] += 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    run = Environment.run

    def metered_run(self, until=None):
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            return run(self, until)
        finally:
            sys.settrace(previous)

    with monkeypatch.context() as patch:
        patch.setattr(Environment, "run", metered_run)
        events = scenario()[0]
    return total[0], events


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_opcodes_per_event(name, monkeypatch):
    pins = PINS.get(sys.version_info[:2])
    if pins is None:
        pytest.skip("no opcode pins for CPython %d.%d" % sys.version_info[:2])
    want_ops, want_events = pins[name]
    ops, events = count_opcodes(SCENARIOS[name], monkeypatch)
    assert events == want_events
    per_event = ops / events
    assert ops <= want_ops * (1 + TOLERANCE), (
        "%s: %d opcodes (%.1f per event) against the pinned %d (%.1f)"
        % (name, ops, per_event, want_ops, want_ops / want_events))
    assert ops >= want_ops * (1 - TOLERANCE), (
        "%s: %d opcodes (%.1f per event), below the pinned %d: re-pin"
        % (name, ops, per_event, want_ops))
