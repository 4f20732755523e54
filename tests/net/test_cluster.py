"""Cluster tier: consistent-hash ring, shard preload, and the SmartNIC
L4 VIP's steering policies (DESIGN.md §4.15)."""

import pytest

from repro.apps.memcached import (
    KeyValueStore,
    encode_delete,
    encode_get,
    encode_set,
    encode_stats,
)
from repro.errors import ConfigError
from repro.net import MultiRackNetwork, Network
from repro.net.cluster import (
    ConsistentHashRing,
    L4LoadBalancer,
    STEER_POLICIES,
    extract_key,
    shard_preload,
)
from repro.net.packet import Address, Message
from repro.sim import Environment, RngRegistry, Store


VIP = "10.0.0.100"
PORT = 11211


class _Port:
    def __init__(self, env, capacity=float("inf")):
        self.rx = Store(env, capacity=capacity)


@pytest.fixture
def env():
    return Environment()


def _keys(n):
    return [b"user-%03d" % i for i in range(n)]


class TestExtractKey:
    def test_get_and_delete(self):
        assert extract_key(encode_get(b"alpha")) == b"alpha"
        assert extract_key(encode_delete(b"beta")) == b"beta"

    def test_set_stops_at_the_value_separator(self):
        assert extract_key(encode_set(b"gamma", b"v\x00v")) == b"gamma"

    def test_non_conforming_payloads_are_keyless(self):
        assert extract_key(encode_stats()) is None
        assert extract_key(b"raw tensor bytes") is None
        assert extract_key(("not", "bytes")) is None

    def test_memoryview_accepted(self):
        assert extract_key(memoryview(encode_get(b"mv"))) == b"mv"


class TestConsistentHashRing:
    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ConfigError):
            ring.add("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(ConfigError):
            ConsistentHashRing(["a"]).remove("b")

    def test_membership_surface(self):
        ring = ConsistentHashRing(["a", "b"])
        assert "a" in ring and "c" not in ring
        assert len(ring) == 2
        assert ring.nodes == ("a", "b")

    def test_empty_ring_owns_nothing(self):
        ring = ConsistentHashRing()
        assert ring.lookup(b"k") == []
        assert ring.owner(b"k") is None

    def test_lookup_returns_distinct_owners(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        for key in _keys(32):
            owners = ring.lookup(key, 2)
            assert len(owners) == 2
            assert len(set(owners)) == 2
        # asking for more than the ring holds returns every node once
        assert sorted(ring.lookup(b"k", 10)) == ["a", "b", "c"]

    def test_mapping_independent_of_insertion_order(self):
        one = ConsistentHashRing(["a", "b", "c"])
        other = ConsistentHashRing(["c", "a", "b"])
        for key in _keys(64):
            assert one.lookup(key, 2) == other.lookup(key, 2)

    def test_removal_only_moves_the_removed_nodes_keys(self):
        # The consistent-hashing contract: dropping one node rehomes
        # only the keys it owned; everything else keeps its owner.
        ring = ConsistentHashRing(["a", "b", "c"])
        before = {key: ring.owner(key) for key in _keys(64)}
        ring.remove("c")
        for key, owner in before.items():
            if owner != "c":
                assert ring.owner(key) == owner

    def test_alive_predicate_matches_physical_removal(self):
        # Skipping dead nodes at lookup time is the zero-coordination
        # rebalance: it must agree with actually removing the node.
        full = ConsistentHashRing(["a", "b", "c"])
        shrunk = ConsistentHashRing(["a", "b", "c"])
        shrunk.remove("b")
        alive = lambda node: node != "b"
        for key in _keys(64):
            assert full.owner(key, alive=alive) == shrunk.owner(key)
            assert full.lookup(key, 2, alive=alive) == shrunk.lookup(key, 2)

    def test_string_and_byte_keys_hash_identically(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.owner("user-001") == ring.owner(b"user-001")


class TestShardPreload:
    def test_each_key_lands_on_its_replica_set(self):
        nodes = ["n0", "n1", "n2", "n3"]
        ring = ConsistentHashRing(nodes)
        stores = {node: KeyValueStore() for node in nodes}
        items = [(key, b"v" + key) for key in _keys(24)]
        counts = shard_preload(ring, stores, items, replication=2)
        assert sum(counts.values()) == 24 * 2
        for key, value in items:
            owners = ring.lookup(key, 2)
            for node in nodes:
                hit = stores[node].execute(encode_get(key))
                if node in owners:
                    assert hit == value
                else:
                    assert hit == b""


def _cluster(env, policy="round_robin", backends=3, rng=None, ring=None,
             replication=None, depths=None, network=None, **lb_kw):
    """A VIP plus *backends* passive ports on a fresh fabric."""
    net = network if network is not None else Network(env)
    lb = L4LoadBalancer(env, net, VIP, port=PORT, policy=policy, rng=rng,
                        ring=ring, replication=replication, **lb_kw)
    lb.steer_cost = 0.1
    ports = []
    for i in range(backends):
        ip = "10.0.0.%d" % (i + 1)
        port = _Port(env)
        net.attach(ip, port)
        depth = (depths[i] if depths is not None
                 else (lambda p=port: len(p.rx._items)))
        lb.add_backend(Address(ip, PORT), depth=depth)
        ports.append(port)
    return net, lb, ports


def _offer(net, payloads):
    for i, payload in enumerate(payloads):
        net.deliver(Message(Address("10.0.9.9", 1000 + i),
                            Address(VIP, PORT), payload))


class TestLoadBalancerConstruction:
    def test_unknown_policy_rejected(self, env):
        with pytest.raises(ConfigError):
            L4LoadBalancer(env, Network(env), VIP, policy="random")

    def test_p2c_needs_an_rng(self, env):
        with pytest.raises(ConfigError):
            L4LoadBalancer(env, Network(env), VIP, policy="p2c")

    def test_duplicate_backend_rejected(self, env):
        _net, lb, _ports = _cluster(env, backends=1)
        with pytest.raises(ConfigError):
            lb.add_backend(Address("10.0.0.1", PORT))

    def test_policy_list_is_closed(self):
        assert STEER_POLICIES == ("round_robin", "least_loaded", "p2c")


class TestSteering:
    def test_round_robin_rotates_evenly(self, env):
        net, lb, ports = _cluster(env, policy="round_robin")
        _offer(net, [b"keyless"] * 6)
        env.run()
        assert lb.steered == 6
        assert list(lb.backend_counts().values()) == [2, 2, 2]
        assert all(len(p.rx._items) == 2 for p in ports)

    def test_least_loaded_picks_the_shallowest_queue(self, env):
        depths = [lambda: 2, lambda: 0, lambda: 1]
        net, lb, ports = _cluster(env, policy="least_loaded", depths=depths)
        _offer(net, [b"keyless"] * 5)
        env.run()
        assert lb.backend_counts()["10.0.0.2"] == 5
        assert len(ports[1].rx._items) == 5

    def test_p2c_prefers_the_shallow_backend(self, env):
        depths = [lambda: 10, lambda: 0, lambda: 10]
        net, lb, _ports = _cluster(env, policy="p2c", depths=depths,
                                   rng=RngRegistry(7))
        _offer(net, [b"keyless"] * 60)
        env.run()
        counts = lb.backend_counts()
        assert counts["10.0.0.2"] > counts["10.0.0.1"]
        assert counts["10.0.0.2"] > counts["10.0.0.3"]

    def test_p2c_is_seed_deterministic(self, env):
        def once():
            env2 = Environment()
            net, lb, _ports = _cluster(env2, policy="p2c",
                                       rng=RngRegistry(7))
            _offer(net, [b"keyless"] * 40)
            env2.run()
            return lb.backend_counts()

        assert once() == once()

    def test_dsr_rewrites_destination_in_place(self, env):
        net, lb, ports = _cluster(env, backends=1)
        msg = Message(Address("10.0.9.9", 1000), Address(VIP, PORT),
                      encode_get(b"k"))
        msg_id = msg.msg_id
        net.deliver(msg)
        env.run()
        landed = ports[0].rx.try_get()
        assert landed is msg                     # forwarded, not copied
        assert landed.msg_id == msg_id           # in-flight table keys on it
        assert landed.dst == Address("10.0.0.1", PORT)
        assert landed.src == Address("10.0.9.9", 1000)  # reply goes DSR

    def test_no_backends_counts_unrouted(self, env):
        net, lb, _ports = _cluster(env, backends=0)
        _offer(net, [b"keyless"] * 3)
        env.run()
        assert lb.unrouted == 3
        assert lb.steered == 0


class TestRingSteering:
    def test_single_replica_follows_the_ring_owner(self, env):
        ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        ring = ConsistentHashRing(ips)
        net, lb, ports = _cluster(env, ring=ring, replication=1)
        keys = _keys(12)
        _offer(net, [encode_get(key) for key in keys])
        env.run()
        by_ip = dict(zip(ips, ports))
        for key in keys:
            owner = ring.owner(key)
            landed = [bytes(m.payload)[5:] for m in by_ip[owner].rx._items]
            assert key in landed

    def test_replica_set_bounds_the_choice(self, env):
        ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        ring = ConsistentHashRing(ips)
        net, lb, _ports = _cluster(env, policy="round_robin", ring=ring,
                                   replication=2)
        key = _keys(1)[0]
        _offer(net, [encode_get(key)] * 10)
        env.run()
        counts = lb.backend_counts()
        replicas = set(ring.lookup(key, 2))
        for ip in ips:
            if ip in replicas:
                assert counts[ip] > 0
            else:
                assert counts[ip] == 0


class TestHealthChecks:
    def test_dead_rack_backends_are_skipped(self, env):
        network = MultiRackNetwork(env, racks=2)
        network.place(VIP, 0)
        network.place("10.0.0.1", 0)
        network.place("10.0.0.2", 1)
        net, lb, ports = _cluster(env, policy="round_robin", backends=2,
                                  network=network)
        network.fail_rack(1)
        _offer(net, [b"keyless"] * 4)
        env.run()
        counts = lb.backend_counts()
        assert counts["10.0.0.1"] == 4
        assert counts["10.0.0.2"] == 0
        assert len(ports[0].rx._items) == 4

    def test_ring_rehomes_a_dead_racks_shards(self, env):
        network = MultiRackNetwork(env, racks=2)
        network.place(VIP, 0)
        ips = ["10.0.0.1", "10.0.0.2"]
        network.place(ips[0], 0)
        network.place(ips[1], 1)
        ring = ConsistentHashRing(ips)
        net, lb, ports = _cluster(env, ring=ring, replication=1, backends=2,
                                  network=network)
        # pick a key whose primary owner lives in rack 1, then kill it
        key = next(k for k in _keys(32) if ring.owner(k) == ips[1])
        network.fail_rack(1)
        _offer(net, [encode_get(key)] * 3)
        env.run()
        assert lb.backend_counts()[ips[0]] == 3
        assert lb.unrouted == 0


class TestVipSaturation:
    def test_rx_ring_drop_tail_under_overload(self, env):
        # A huge steer cost: the bounded VIP RX ring overflows and the
        # VIP's wire channel counts the drop-tail.
        net = Network(env)
        lb = L4LoadBalancer(env, net, VIP, policy="round_robin")
        lb.steer_cost = 50.0
        lb.rx.capacity = 2
        port = _Port(env)
        net.attach("10.0.0.1", port)
        lb.add_backend(Address("10.0.0.1", PORT))
        _offer(net, [b"keyless"] * 10)
        env.run()
        wire = net.wire_channel(VIP)
        assert wire.dropped == 7      # 1 draining + 2 buffered survive
        assert wire.delivered + wire.dropped == 10
        assert lb.steered == 3
