"""Cluster service tier: consistent-hash sharding + a SmartNIC L4 VIP.

Lovelock (PAPERS.md) pushes the Lynx thesis one level up: if a SmartNIC
can own one server's network control loop, a SmartNIC can own a whole
*cluster's* — hosting the L4 load balancer that steers requests across
a sharded, replicated service tier.  This module is that tier
(DESIGN.md §4.15):

* :class:`ConsistentHashRing` — blake2s-hashed virtual-node ring
  mapping keys to their owning replicas.  blake2s (not ``hash()``)
  keeps the mapping identical in every process, python version, and
  platform — the same determinism convention as the sweep executor's
  seed derivation.  ``lookup`` walks clockwise past dead nodes, which
  is the shard-rebalance half of rack failover: when a rack dies, its
  keys rehome to the next live successor with no coordination.
* :class:`L4LoadBalancer` — a network endpoint at a VIP, modelling the
  SmartNIC datapath: frames land in a bounded RX ring (drop-tail under
  VIP overload), a drain loop charges a per-packet steering cost, the
  request key selects the replica set off the ring, and one of three
  policies picks the replica: ``round_robin``, ``least_loaded``
  (instantaneous backend queue depth), or ``p2c``
  (power-of-two-choices: two independent draws from a named RNG
  stream, steer to the shallower queue).  The chosen backend gets the
  *original* message with a rewritten destination, so its reply goes
  direct-server-return to the client — ``Message.reply`` targets the
  request's source and preserves ``msg_id`` for the population plane's
  in-flight table.

Determinism: steering consumes schedule slots only through
``env.defer`` and draws only from the named stream
``cluster.p2c.<vip>``, so fixed-seed cluster runs are bit-identical
across ``--jobs 1/N``.
"""

import hashlib
from bisect import bisect_right

from .. import telemetry
from ..errors import ConfigError
from ..sim import Channel

#: replica-steering policies the VIP understands
STEER_POLICIES = ("round_robin", "least_loaded", "p2c")

#: virtual nodes per ring member
VNODES = 64
#: most messages one steering wakeup drains from the VIP's RX ring
MAX_BATCH = 64
#: SmartNIC per-packet steering cost (us): L4 parse + hash +
#: connection-table lookup on the NIC ARM datapath
STEER_COST = 0.3
#: entries in the VIP's bounded RX ring
RX_RING = 4096

# apps.memcached wire-format prefixes (kept literal here: the fabric
# layer must not import the application layer)
_GET = b"get \x00"
_SET = b"set \x00"
_DEL = b"del \x00"


def extract_key(payload):
    """The shard key of a memcached-style request payload, or ``None``.

    Non-conforming payloads (LeNet tensors, stats probes) return
    ``None`` — the balancer then steers across the full replica set.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = bytes(payload)
        if payload.startswith(_GET) or payload.startswith(_DEL):
            return payload[5:]
        if payload.startswith(_SET):
            return payload[5:].partition(b"\x00")[0]
    return None


def _point(data):
    """A 64-bit ring position (blake2s: stable across processes)."""
    return int.from_bytes(hashlib.blake2s(data, digest_size=8).digest(),
                          "big")


class ConsistentHashRing:
    """Virtual-node consistent hashing over a set of node names."""

    def __init__(self, nodes=()):
        self._nodes = []
        self._points = []   # sorted vnode positions
        self._owners = []   # node name per position
        for node in nodes:
            self.add(node)

    def __contains__(self, node):
        return node in self._nodes

    def __len__(self):
        return len(self._nodes)

    @property
    def nodes(self):
        return tuple(self._nodes)

    def add(self, node):
        """Add *node* (its vnodes claim ring segments from neighbours)."""
        if node in self._nodes:
            raise ConfigError("node %r already on the ring" % (node,))
        self._nodes.append(node)
        encoded = node.encode("utf-8") if isinstance(node, str) else node
        for v in range(VNODES):
            point = _point(b"%s#%d" % (encoded, v))
            at = bisect_right(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, node)

    def remove(self, node):
        """Remove *node* (its segments fall back to the successors)."""
        if node not in self._nodes:
            raise ConfigError("node %r is not on the ring" % (node,))
        self._nodes.remove(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def lookup(self, key, n=1, alive=None):
        """Up to *n* distinct owners of *key*, clockwise from its hash.

        *alive* is an optional predicate; dead nodes are skipped, which
        rehomes their keys to the next live successor (the rebalance
        half of failover).  Returns fewer than *n* nodes when the ring
        runs out of distinct live ones.
        """
        if not self._points:
            return []
        if isinstance(key, str):
            key = key.encode("utf-8")
        start = bisect_right(self._points, _point(key))
        owners = self._owners
        total = len(owners)
        out = []
        for off in range(total):
            node = owners[(start + off) % total]
            if node in out:
                continue
            if alive is not None and not alive(node):
                continue
            out.append(node)
            if len(out) == n:
                break
        return out

    def owner(self, key, alive=None):
        """The primary owner of *key* (or None on an empty/dead ring)."""
        found = self.lookup(key, 1, alive=alive)
        return found[0] if found else None


def shard_preload(ring, stores, items, replication=2):
    """Preload each (key, value) onto its *replication* ring owners.

    *stores* maps node name -> anything with ``preload([(k, v), ...])``
    (a :class:`~repro.apps.memcached.KeyValueStore`).  Returns the
    per-node key counts, for placement assertions.
    """
    counts = {node: 0 for node in stores}
    for key, value in items:
        for node in ring.lookup(key, replication):
            stores[node].preload([(key, value)])
            counts[node] += 1
    return counts


class _Backend:
    """One registered replica: address plus a live queue-depth probe."""

    __slots__ = ("addr", "depth", "steered")

    def __init__(self, addr, depth):
        self.addr = addr
        self.depth = depth if depth is not None else (lambda: 0)
        self.steered = 0


class _SteerOp:
    """The VIP's drain loop: park one get on the RX ring; each wake
    takes a batch of up to :data:`MAX_BATCH` messages, charges the
    SmartNIC steering cost for it, then forwards and re-arms.  Frames
    arriving while the batch is being charged buffer in the bounded RX
    ring — the VIP's own saturation behaviour."""

    __slots__ = ("lb", "batch")

    def __init__(self, lb):
        self.lb = lb
        self.batch = None
        lb.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        self.lb.rx.get_then(self._on_msg)

    def _on_msg(self, msg):
        lb = self.lb
        batch = [msg]
        batch.extend(lb.rx.recv_batch(MAX_BATCH - 1))
        self.batch = batch
        lb.env.defer(lb.steer_cost * len(batch), self._forward)

    def _forward(self, _arg):
        batch, self.batch = self.batch, None
        self.lb.steer_batch(batch)
        self._arm()


class L4LoadBalancer:
    """An L4 VIP hosted on a SmartNIC, steering across replicas.

    Parameters
    ----------
    ip, port:
        The VIP.  Clients (and populations) send here; replies return
        direct-server-return from the chosen backend.
    policy:
        One of :data:`STEER_POLICIES`.
    rng:
        :class:`~repro.sim.RngRegistry` (required for ``p2c``); draws
        ride the named stream ``cluster.p2c.<ip>``.
    ring / replication:
        Optional :class:`ConsistentHashRing` sharding the key space;
        each request is steered within its key's *replication*-sized
        replica set.  Without a ring (or for keyless payloads) the
        replica set is every live backend.
    """

    def __init__(self, env, network, ip, port=11211, policy="p2c", rng=None,
                 ring=None, replication=None):
        if policy not in STEER_POLICIES:
            raise ConfigError("unknown steering policy %r (one of %s)"
                              % (policy, ", ".join(STEER_POLICIES)))
        if policy == "p2c" and rng is None:
            raise ConfigError("p2c steering needs an RngRegistry")
        self.env = env
        self.network = network
        self.ip = ip
        self.port = port
        self.policy = policy
        self.rng = rng
        self.ring = ring
        self.replication = replication
        self.steer_cost = STEER_COST
        self.name = "lb@%s" % ip
        self._stream = "cluster.p2c.%s" % ip
        self.rx = Channel(env, capacity=RX_RING, name="%s-rx" % self.name)
        network.attach(ip, self)
        self._backends = {}     # node name (ip) -> _Backend
        self._order = []        # registration order (policy tie-breaks)
        self._rr = -1
        # Health checks read the fabric's rack state when it has one
        # (MultiRackNetwork); a single-switch fabric is always up.
        self._is_up = getattr(network, "is_up", None)
        self.steered = 0
        self.unrouted = 0
        reg = telemetry.registry()
        base = "net.lb.%s." % ip
        reg.pull(base + "steered", lambda: self.steered)
        reg.pull(base + "unrouted", lambda: self.unrouted)
        _SteerOp(self)

    # -- replica registration ----------------------------------------------

    def add_backend(self, addr, depth=None):
        """Register the replica at *addr* (an :class:`~.packet.Address`).

        *depth* is a zero-argument callable returning the replica's
        instantaneous queue depth (e.g. its NIC RX-ring occupancy) —
        the signal ``least_loaded`` and ``p2c`` steer on.
        """
        node = addr.ip
        if node in self._backends:
            raise ConfigError("backend %s already registered" % node)
        self._backends[node] = _Backend(addr, depth)
        self._order.append(node)
        telemetry.registry().pull(
            "net.lb.%s.to.%s" % (self.ip, node),
            lambda b=self._backends[node]: b.steered)

    def backend_counts(self):
        """{backend ip: steered count} (tests, reports)."""
        return {node: self._backends[node].steered for node in self._order}

    # -- steering ------------------------------------------------------------

    def _candidates(self, key):
        """Live replica names eligible for *key*, deterministic order."""
        alive = self._is_up
        if self.ring is not None and key is not None:
            want = self.replication or len(self._order)
            found = self.ring.lookup(key, want, alive=alive)
            return [node for node in found if node in self._backends]
        if alive is None:
            return self._order
        return [node for node in self._order if alive(node)]

    def _pick(self, candidates):
        n = len(candidates)
        if n == 1:
            return candidates[0]
        policy = self.policy
        if policy == "round_robin":
            self._rr += 1
            return candidates[self._rr % n]
        backends = self._backends
        if policy == "least_loaded":
            best, best_depth = candidates[0], backends[candidates[0]].depth()
            for node in candidates[1:]:
                depth = backends[node].depth()
                if depth < best_depth:
                    best, best_depth = node, depth
            return best
        # p2c: two distinct draws, steer to the shallower queue
        i = self.rng.integers(self._stream, 0, n)
        j = self.rng.integers(self._stream, 0, n - 1)
        if j >= i:
            j += 1
        a, b = candidates[i], candidates[j]
        if backends[b].depth() < backends[a].depth():
            return b
        return a

    def steer_batch(self, msgs):
        """Steer a drained batch: rewrite each destination and re-inject
        through the fabric's router (rack-aware on a multi-rack
        network).  Replies bypass the VIP entirely (DSR)."""
        deliver = self.network.deliver
        backends = self._backends
        for msg in msgs:
            candidates = self._candidates(extract_key(msg.payload))
            if not candidates:
                self.unrouted += 1
                continue
            backend = backends[self._pick(candidates)]
            msg.dst = backend.addr
            backend.steered += 1
            self.steered += 1
            deliver(msg)

    def __repr__(self):
        return "<L4LoadBalancer %s policy=%s backends=%d steered=%d>" % (
            self.ip, self.policy, len(self._order), self.steered)
