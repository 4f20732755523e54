"""The physical network: endpoints, wire, ToR switches, and a spine.

The paper's testbed is a handful of machines behind one Mellanox SN2100
cut-through switch.  Model: every NIC port attaches with an IP and gets
a wire :class:`~repro.sim.Channel` (fixed wire + switch-forwarding
latency, sinking into the port's RX ring); a frame costs its
serialization time on the sender port (charged by the NIC's TX
channel), then rides the receiver's wire channel before landing
drop-tail in the RX ring.

:class:`MultiRackNetwork` (DESIGN.md §4.15) scales that single switch
out to several ToRs behind a spine: intra-rack traffic keeps the exact
single-hop path above, while cross-rack frames ride two extra
:class:`~repro.sim.Channel` hops — the source ToR's uplink and the
destination ToR's downlink — each adding ``SPINE_LATENCY`` and bounded
by a drop-tail spine-port queue.  Racks are fault domains:
:meth:`MultiRackNetwork.fail_rack` partitions a rack mid-run (frames
to *and* from it drop, counted), which is what the cluster failover
experiment (E18) recovers from.
"""

from ..errors import NetworkError
from ..sim import Channel
from .. import telemetry

#: one-way latencies (us) of a host wire, the ToR switch and a spine hop
WIRE_LATENCY = 0.3
SWITCH_LATENCY = 0.3
SPINE_LATENCY = 0.5


class Network:
    """A single-switch Ethernet/InfiniBand fabric."""

    def __init__(self, env):
        self.env = env
        self._endpoints = {}
        #: per-destination wire channels (created at attach time)
        self._channels = {}
        self.dropped_no_route = 0
        # Telemetry (DESIGN.md §4.9): registered as a pull counter so
        # merged --jobs N snapshots keep no-route drops (the bare
        # attribute alone would silently vanish from worker merges).
        telemetry.registry().pull("net.fabric.dropped_no_route",
                                  lambda: self.dropped_no_route)

    def attach(self, ip, endpoint):
        """Register *endpoint* (anything with an ``rx`` store) under *ip*."""
        if ip in self._endpoints:
            raise NetworkError("IP %s already attached" % ip)
        self._endpoints[ip] = endpoint
        # Drop-tail at the receiver's RX ring: a finite NIC ring is what
        # keeps an overloaded server stable instead of building an
        # unbounded backlog.
        channel = Channel(
            self.env, name="wire->%s" % ip, latency=self.one_way_latency,
            sink=endpoint.rx)
        self._channels[ip] = channel
        # Telemetry (DESIGN.md §4.9): the wire channel carries the
        # endpoint's RX-ring drop-tail accounting.
        reg = telemetry.registry()
        reg.pull("net.wire.%s.delivered" % ip, lambda: channel.delivered)
        reg.pull("net.wire.%s.drops" % ip, lambda: channel.dropped)

    def endpoint(self, ip):
        try:
            return self._endpoints[ip]
        except KeyError:
            raise NetworkError("no endpoint with IP %s" % ip)

    def wire_channel(self, ip):
        """The wire Channel feeding *ip*'s RX ring (for tests/stats)."""
        try:
            return self._channels[ip]
        except KeyError:
            raise NetworkError("no endpoint with IP %s" % ip)

    @property
    def one_way_latency(self):
        """Port-to-port latency through the switch, excluding serialization."""
        return 2 * WIRE_LATENCY + SWITCH_LATENCY

    def inject_channel(self, src_ip, dst_ip):
        """The Channel a flyweight source at *src_ip* injects into when
        targeting *dst_ip* (bypassing :meth:`deliver`'s route lookup).

        On the single-switch fabric this is the destination's wire
        channel — the same object, so injection stays bit-identical
        with the historical direct resolution.  The multi-rack fabric
        overrides it to return the source rack's uplink for cross-rack
        destinations.
        """
        return self.wire_channel(dst_ip)

    def deliver(self, msg):
        """Fire-and-forget delivery of *msg* to its destination port.

        Routed at send time: the frame enters its first hop at once.
        """
        channel = self._channels.get(msg.dst.ip)
        if channel is None:
            self.dropped_no_route += 1
            return
        channel.push(msg, nbytes=msg.wire_size)


class _TorUplinkSink:
    """Routing sink behind one ToR's uplink hop: lands each frame on
    the destination rack's downlink, drop-tail at the oversubscribed
    spine-port queue.

    Its own ``try_put`` makes ``Channel._land_many`` take the per-item
    ``_land`` fallback, so every frame is routed (and its drop
    accounted) individually.
    """

    __slots__ = ("network", "rack")

    def __init__(self, network, rack):
        self.network = network
        self.rack = rack

    def try_put(self, msg):
        network = self.network
        dead = network._dead_racks
        # A partitioned rack fences its own uplink (frames injected from
        # inside it) and refuses frames headed into it; either refusal
        # is accounted as this hop's `dropped` by the refused _land.
        dst_rack = network.rack_of(msg.dst.ip)
        if self.rack in dead or dst_rack in dead:
            return False
        downlink = network._downlinks[dst_rack]
        # Drop-tail at the oversubscribed spine port.
        if len(downlink._in_flight) >= network.spine_queue:
            return False
        downlink.push(msg, nbytes=msg.wire_size)
        return True


class _TorDownlinkSink:
    """Routing sink behind one ToR's downlink hop: lands each frame on
    the destination endpoint's last-hop wire channel."""

    __slots__ = ("network", "rack")

    def __init__(self, network, rack):
        self.network = network
        self.rack = rack

    def try_put(self, msg):
        network = self.network
        wire = network._channels.get(msg.dst.ip)
        if wire is None or self.rack in network._dead_racks:
            return False
        wire.push(msg, nbytes=msg.wire_size)
        return True


class MultiRackNetwork(Network):
    """Several ToRs behind a spine (DESIGN.md §4.15).

    Endpoints are placed into racks with :meth:`place` (default rack
    0).  Intra-rack delivery is byte-identical to the single-switch
    fabric; a cross-rack frame rides ``uplink(src rack) ->
    downlink(dst rack) -> wire(dst)``, adding ``SPINE_LATENCY`` per
    spine hop.  The spine port is a drop-tail queue of ``spine_queue``
    entries, so a congested spine drops frames on the *uplink* hop — the
    classic oversubscribed-fabric failure mode.

    Racks are fault domains: :meth:`fail_rack` partitions a rack
    (frames to and from it are dropped and counted in
    ``dropped_rack_down``); :meth:`restore_rack` heals it.
    """

    #: spine-port queue depth (drop-tail)
    spine_queue = 512

    def __init__(self, env, racks=2):
        super().__init__(env)
        if racks < 1:
            raise NetworkError("a multi-rack fabric needs >= 1 rack")
        self.racks = racks
        self._rack_plan = {}
        self._dead_racks = set()
        self.dropped_rack_down = 0
        self._uplinks = []
        self._downlinks = []
        reg = telemetry.registry()
        for rack in range(racks):
            up = Channel(env, name="tor%d-up" % rack, latency=SPINE_LATENCY,
                         sink=_TorUplinkSink(self, rack))
            down = Channel(env, name="tor%d-down" % rack,
                           latency=SPINE_LATENCY,
                           sink=_TorDownlinkSink(self, rack))
            self._uplinks.append(up)
            self._downlinks.append(down)
            for tag, hop in (("up", up), ("down", down)):
                base = "net.fabric.tor%d.%s." % (rack, tag)
                reg.pull(base + "delivered",
                         lambda hop=hop: hop.delivered)
                reg.pull(base + "drops", lambda hop=hop: hop.dropped)
        reg.pull("net.fabric.dropped_rack_down",
                 lambda: self.dropped_rack_down)

    # -- placement ---------------------------------------------------------

    def place(self, ip, rack):
        """Assign *ip* to *rack* (call before or after attaching)."""
        if not 0 <= rack < self.racks:
            raise NetworkError("rack %r out of range (have %d racks)"
                               % (rack, self.racks))
        self._rack_plan[ip] = rack

    def rack_of(self, ip):
        """The rack an endpoint lives in (unplaced IPs default to 0)."""
        return self._rack_plan.get(ip, 0)

    def rack_members(self, rack):
        """Attached IPs placed in *rack*."""
        return [ip for ip in self._endpoints
                if self._rack_plan.get(ip, 0) == rack]

    # -- fault domains ------------------------------------------------------

    def fail_rack(self, rack):
        """Partition *rack*: frames to and from it drop until restored."""
        if not 0 <= rack < self.racks:
            raise NetworkError("rack %r out of range (have %d racks)"
                               % (rack, self.racks))
        self._dead_racks.add(rack)

    def restore_rack(self, rack):
        self._dead_racks.discard(rack)

    def rack_is_up(self, rack):
        return rack not in self._dead_racks

    def is_up(self, ip):
        """Whether *ip*'s rack is currently alive (LB health checks)."""
        return self._rack_plan.get(ip, 0) not in self._dead_racks

    # -- hop access (tests / telemetry) -------------------------------------

    def uplink(self, rack):
        return self._uplinks[rack]

    def downlink(self, rack):
        return self._downlinks[rack]

    # -- routing ------------------------------------------------------------

    def inject_channel(self, src_ip, dst_ip):
        wire = self.wire_channel(dst_ip)  # raises on unknown dst
        if self.rack_of(src_ip) == self.rack_of(dst_ip):
            return wire
        return self._uplinks[self.rack_of(src_ip)]

    def deliver(self, msg):
        channel = self._channels.get(msg.dst.ip)
        if channel is None:
            self.dropped_no_route += 1
            return
        src_rack = self.rack_of(msg.src.ip)
        dst_rack = self.rack_of(msg.dst.ip)
        dead = self._dead_racks
        if dead and (src_rack in dead or dst_rack in dead):
            # Dead rack: nothing enters or leaves it.  This routing-stage
            # counter is disjoint from the per-hop `dropped` counters
            # (frames already in flight when the rack dies are refused
            # at a spine hop and count there), so conservation sums add
            # every counter exactly once.
            self.dropped_rack_down += 1
            return
        if src_rack == dst_rack:
            channel.push(msg, nbytes=msg.wire_size)
        else:
            self._uplinks[src_rack].push(msg, nbytes=msg.wire_size)
