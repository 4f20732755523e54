"""Exact event budgets of three small scenarios.

The serving path schedules no zero-delay relay entries (DESIGN.md §4.6
relay-collapse rule): an idle core or channel slot is granted inline,
``Network.deliver`` routes at send time, the send, delivery and egress
ops start their first step at once, a deadline-free closed-loop request
is answered without a waiter event, and nothing schedules a
listener-less ``StorePut``.  These tests pin ``events_processed``
exactly, so a relay that comes back — or any other change to the event
sequence — fails them.  A change that moves the count on purpose
updates the pin and says why in CHANGES.md.

With every relay in place the same two runs scheduled 6,344 and 16,757
events, for the same responses.

The third run drives one ``ClientPopulation``: Poisson arrivals at
8/us, for 10 ms, into a mute sink that never answers, with 2 us
frames, so the count measures the generation path alone.  Frame
coalescing (DESIGN.md §4.13) lands each frame with one wake and one
``push_many`` landing, about 0.125 events per arrival; landing one
frame per arrival (``coalesce_us`` 0) schedules 159,974 events for the
same 79,988 arrivals, and the scalar ``OpenLoopGenerator`` plane needs
about 3 per arrival.
"""

import pytest

from repro import Testbed, telemetry
from repro.apps.base import SpinApp
from repro.apps.memcached import MemcachedServer, encode_get
from repro.config import XEON_VMA
from repro.experiments.common import LYNX_BLUEFIELD, deploy
from repro.net import (
    ClientPopulation,
    ClosedLoopGenerator,
    OpenLoopGenerator,
    PayloadPool,
    PoissonPopulation,
)
from repro.net.packet import UDP, Address
from repro.sim import Channel


def _lynx_ingress():
    """Lynx on the Bluefield in front of a GPU spin service, driven by
    four deadline-free closed-loop workers and a slow open-loop
    client (whose sends ride the pooled send op) for 3 ms."""
    with telemetry.scope():
        dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0))
        closed = dep.tb.client("10.0.9.1")
        gen = ClosedLoopGenerator(dep.env, closed, dep.address, 4,
                                  payload_fn=lambda i: b"x" * 64)
        opened = dep.tb.client("10.0.9.2")
        OpenLoopGenerator(dep.env, opened, dep.address, 0.02,
                          payload_fn=lambda i: b"y" * 64)
        dep.env.run(until=3000.0)
        return (dep.env.events_processed, gen.completed,
                opened.responses.count)


def _memcached_closed_loop():
    """A two-core host memcached serving four deadline-free UDP
    closed-loop workers for 2 ms."""
    with telemetry.scope():
        tb = Testbed(seed=1)
        env = tb.env
        host = tb.machine("10.0.0.2")
        client = tb.client("10.0.1.1")
        server = MemcachedServer(env, host.nic,
                                 host.pool(count=2, name="mc"), XEON_VMA)
        gen = ClosedLoopGenerator(
            env, client, Address("10.0.0.2", 11211), concurrency=4,
            payload_fn=lambda i: encode_get(b"k%d" % (i % 5)), proto=UDP)
        env.run(until=2000.0)
        return env.events_processed, gen.completed, server.ops.count


def _population_into_mute_sink():
    """One population offering Poisson load at 8/us, in 2 us frames, to
    a sink that never answers, for 10 ms."""
    with telemetry.scope(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClientPopulation, "coalesce_us", 2.0)
        tb = Testbed(seed=42)

        class MuteSink:
            rx = Channel(tb.env, name="mute-rx")

        tb.network.attach("10.0.0.9", MuteSink())
        pop = ClientPopulation(tb.env, tb.network, "10.0.9.1",
                               Address("10.0.0.9", 7777),
                               PoissonPopulation(8.0, tb.rng.stream("bench")),
                               PayloadPool.single(b"x" * 64))
        tb.run(until=10000.0)
        return tb.env.events_processed, pop.offered


class TestEventBudget:
    def test_lynx_ingress(self):
        assert _lynx_ingress() == (3805, 79, 51)

    def test_memcached_closed_loop(self):
        assert _memcached_closed_loop() == (9784, 1046, 1046)

    def test_population_frames_coalesce(self):
        assert _population_into_mute_sink() == (10005, 79988)
