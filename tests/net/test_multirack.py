"""Multi-rack fabric (ToRs + spine) behaviour: routing, fault domains,
hop accounting, and the no-route pull counter (DESIGN.md §4.15)."""

import re

import pytest

from repro import telemetry
from repro.errors import NetworkError
from repro.experiments import sweep
from repro.net import MultiRackNetwork
from repro.net.network import SPINE_LATENCY
from repro.net.packet import Address, Message
from repro.sim import Environment, Store


class _Port:
    def __init__(self, env, capacity=float("inf")):
        self.rx = Store(env, capacity=capacity)


@pytest.fixture
def env():
    return Environment()


def _msg(src_ip, dst_ip):
    return Message(Address(src_ip, 1), Address(dst_ip, 2), b"x")


def _fabric_classes(snap):
    """Frames per end-to-end class, summed over the registry names the
    end-to-end benchmark folds (``net.wire.*``, ``net.fabric.*``)."""
    def total(pattern):
        return sum(v["value"] for k, v in snap.items()
                   if re.fullmatch(pattern, k))

    return {"delivered": total(r"net\.wire\..*\.delivered"),
            "rx_ring": total(r"net\.wire\..*\.drops"),
            "spine": total(r"net\.fabric\.tor\d+\.(up|down)\.drops"),
            "no_route": total(r"net\.fabric\.dropped_no_route"),
            "rack_down": total(r"net\.fabric\.dropped_rack_down")}


# --------------------------------------------------------------------------
# module-level point builder (sweep Points must be picklable): a tiny
# fabric whose only traffic is *drops*, for the merge regression below
# --------------------------------------------------------------------------


def no_route_point(seed, drops=1):
    env = Environment()
    network = MultiRackNetwork(env, racks=2)
    network.attach("10.0.0.1", _Port(env))
    for _ in range(drops):
        network.deliver(_msg("10.0.0.1", "10.9.9.9"))
    network.deliver(_msg("10.0.0.1", "10.0.0.1"))
    env.run()
    assert network.dropped_no_route == drops
    return drops


class TestConstruction:
    def test_needs_at_least_one_rack(self, env):
        with pytest.raises(NetworkError):
            MultiRackNetwork(env, racks=0)



class TestPlacement:
    def test_place_validates_rack_range(self, env):
        network = MultiRackNetwork(env, racks=2)
        with pytest.raises(NetworkError):
            network.place("10.0.0.1", 2)
        with pytest.raises(NetworkError):
            network.place("10.0.0.1", -1)

    def test_unplaced_ips_default_to_rack_zero(self, env):
        network = MultiRackNetwork(env, racks=2)
        assert network.rack_of("10.9.9.9") == 0

    def test_rack_members(self, env):
        network = MultiRackNetwork(env, racks=2)
        for ip, rack in (("10.0.0.1", 0), ("10.0.1.1", 1), ("10.0.1.2", 1)):
            network.attach(ip, _Port(env))
            network.place(ip, rack)
        assert network.rack_members(0) == ["10.0.0.1"]
        assert sorted(network.rack_members(1)) == ["10.0.1.1", "10.0.1.2"]


class TestRouting:
    def _fabric(self, env):
        network = MultiRackNetwork(env, racks=2)
        a, b = _Port(env), _Port(env)
        network.attach("10.0.0.1", a)
        network.place("10.0.0.1", 0)
        network.attach("10.0.1.1", b)
        network.place("10.0.1.1", 1)
        return network, a, b

    def test_intra_rack_latency_matches_single_switch(self, env):
        network, a, _b = self._fabric(env)
        msg = _msg("10.0.0.9", "10.0.0.1")
        network.deliver(msg)
        env.run()
        assert env.now == pytest.approx(network.one_way_latency)
        assert a.rx.try_get() is msg

    def test_cross_rack_adds_two_spine_hops(self, env):
        network, _a, b = self._fabric(env)
        msg = _msg("10.0.0.1", "10.0.1.1")
        network.deliver(msg)
        env.run()
        assert env.now == pytest.approx(network.one_way_latency
                                        + 2 * SPINE_LATENCY)
        assert b.rx.try_get() is msg
        assert network.uplink(0).delivered == 1
        assert network.downlink(1).delivered == 1

    def test_inject_channel_same_rack_is_the_wire(self, env):
        network, _a, _b = self._fabric(env)
        assert (network.inject_channel("10.0.0.9", "10.0.0.1")
                is network.wire_channel("10.0.0.1"))

    def test_inject_channel_cross_rack_is_the_source_uplink(self, env):
        network, _a, _b = self._fabric(env)
        network.place("10.0.1.9", 1)
        assert (network.inject_channel("10.0.1.9", "10.0.0.1")
                is network.uplink(1))

    def test_inject_channel_unknown_destination_raises(self, env):
        network, _a, _b = self._fabric(env)
        with pytest.raises(NetworkError):
            network.inject_channel("10.0.0.1", "10.9.9.9")

    def test_spine_queue_drop_tail_on_the_uplink(self, env):
        with telemetry.scope() as reg:
            network, _a, b = self._fabric(env)
            network.spine_queue = 2
            for _ in range(8):
                network.deliver(_msg("10.0.0.1", "10.0.1.1"))
            env.run()
            snap = reg.snapshot()
        assert len(b.rx._items) == 2
        assert network.uplink(0).dropped == 6
        assert _fabric_classes(snap)["spine"] == 6


class TestFaultDomains:
    def _fabric(self, env):
        network = MultiRackNetwork(env, racks=2)
        b = _Port(env)
        network.attach("10.0.1.1", b)
        network.place("10.0.1.1", 1)
        return network, b

    def test_fail_rack_validates_range(self, env):
        network, _b = self._fabric(env)
        with pytest.raises(NetworkError):
            network.fail_rack(5)

    def test_is_up_tracks_the_rack_state(self, env):
        network, _b = self._fabric(env)
        assert network.rack_is_up(1) and network.is_up("10.0.1.1")
        network.fail_rack(1)
        assert not network.rack_is_up(1)
        assert not network.is_up("10.0.1.1")
        assert network.is_up("10.0.0.9")  # rack 0 untouched

    def test_dead_rack_drops_at_the_routing_stage(self, env):
        network, b = self._fabric(env)
        network.fail_rack(1)
        for _ in range(3):
            network.deliver(_msg("10.0.0.9", "10.0.1.1"))
        env.run()
        assert network.dropped_rack_down == 3
        assert len(b.rx._items) == 0

    def test_restore_rack_resumes_delivery(self, env):
        network, b = self._fabric(env)
        network.fail_rack(1)
        network.deliver(_msg("10.0.0.9", "10.0.1.1"))
        env.run()
        network.restore_rack(1)
        network.deliver(_msg("10.0.0.9", "10.0.1.1"))
        env.run()
        assert network.dropped_rack_down == 1
        assert len(b.rx._items) == 1

    def test_uplink_fences_injected_frames_from_a_dead_rack(self, env):
        # The population plane bypasses deliver() via inject_channel;
        # the uplink sink must still fence a partitioned source rack.
        network, _b = self._fabric(env)
        a = _Port(env)
        network.attach("10.0.0.1", a)
        network.place("10.0.1.9", 1)
        uplink = network.inject_channel("10.0.1.9", "10.0.0.1")
        network.fail_rack(1)
        msg = _msg("10.0.1.9", "10.0.0.1")
        uplink.push(msg, nbytes=msg.wire_size)
        env.run()
        assert uplink.dropped == 1
        assert len(a.rx._items) == 0


class TestConservation:
    def test_every_hop_counter_sums_to_offered(self, env):
        """offered == delivered + rx-ring + spine + no-route + rack-down,
        with every drop class exercised at once."""
        with telemetry.scope() as reg:
            network = MultiRackNetwork(env, racks=2)
            network.spine_queue = 2
            a = _Port(env, capacity=4)
            b = _Port(env, capacity=4)
            network.attach("10.0.0.1", a)
            network.place("10.0.0.1", 0)
            network.attach("10.0.1.1", b)
            network.place("10.0.1.1", 1)
            offered = 0
            for _ in range(8):     # cross-rack burst: 6 die at the spine
                network.deliver(_msg("10.0.0.1", "10.0.1.1"))
                offered += 1
            for _ in range(6):     # intra-rack burst: 2 die at the RX ring
                network.deliver(_msg("10.0.0.9", "10.0.0.1"))
                offered += 1
            for _ in range(2):     # unknown destination
                network.deliver(_msg("10.0.0.1", "10.9.9.9"))
                offered += 1
            env.run()
            network.fail_rack(1)
            for _ in range(3):     # routed into a dead rack
                network.deliver(_msg("10.0.0.9", "10.0.1.1"))
                offered += 1
            env.run()
            counts = _fabric_classes(reg.snapshot())
        assert counts == {"delivered": 6, "rx_ring": 2, "spine": 6,
                          "no_route": 2, "rack_down": 3}
        assert sum(counts.values()) == offered

    def test_mid_flight_rack_kill_counts_at_the_refusing_hop(self, env):
        # Frames already on the spine when the rack dies are refused at
        # the downlink (counted there), while newly routed frames count
        # rack-down — disjoint classes, so the sum still conserves.
        with telemetry.scope() as reg:
            network = MultiRackNetwork(env, racks=2)
            b = _Port(env)
            network.attach("10.0.1.1", b)
            network.place("10.0.1.1", 1)
            for _ in range(5):
                network.deliver(_msg("10.0.0.9", "10.0.1.1"))
            env.run(until=0.7)     # in flight on the downlink hop
            network.fail_rack(1)
            for _ in range(3):
                network.deliver(_msg("10.0.0.9", "10.0.1.1"))
            env.run()
            counts = _fabric_classes(reg.snapshot())
        assert network.downlink(1).dropped == 5
        assert counts["spine"] == 5
        assert counts["rack_down"] == 3
        assert counts["delivered"] == 0
        assert sum(counts.values()) == 8


class TestTelemetry:
    def test_per_hop_pull_counters_registered(self, env):
        with telemetry.scope() as reg:
            network = MultiRackNetwork(env, racks=2)
            b = _Port(env)
            network.attach("10.0.1.1", b)
            network.place("10.0.1.1", 1)
            network.deliver(_msg("10.0.0.9", "10.0.1.1"))
            env.run()
            snap = reg.snapshot()
        assert snap["net.fabric.tor0.up.delivered"]["value"] == 1
        assert snap["net.fabric.tor1.down.delivered"]["value"] == 1
        assert snap["net.fabric.tor0.up.drops"]["value"] == 0
        assert snap["net.fabric.dropped_rack_down"]["value"] == 0
        assert snap["net.fabric.dropped_no_route"]["value"] == 0


class TestNoRoutePullCounter:
    """Regression: ``Network.dropped_no_route`` was a bare attribute, so
    its drops silently vanished from merged ``--jobs N`` snapshots."""

    def _points(self):
        return [sweep.Point(("no-route", i), no_route_point,
                            dict(drops=i + 1))
                for i in range(4)]

    def test_counter_survives_parallel_worker_merge(self):
        expected = 1 + 2 + 3 + 4
        for jobs in (1, 4):
            with telemetry.scope() as reg:
                sweep.run_points(self._points(), jobs=jobs)
                snap = reg.snapshot()
            assert snap["net.fabric.dropped_no_route"]["value"] == expected, \
                "no-route drops lost at jobs=%d" % jobs
