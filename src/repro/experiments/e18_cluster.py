"""E18 — multi-rack cluster scale-out behind a SmartNIC L4 VIP.

An extension beyond the paper's single-server tables, following the
Lovelock/E-cube line of work (PAPERS.md): if a SmartNIC can own one
server's network control loop, it can own a *cluster's* — hosting the
L4 load balancer that steers a sharded, replicated memcached tier
spread across racks (DESIGN.md §4.15).  The deployment:

* a :class:`~repro.net.network.MultiRackNetwork` with two ToRs behind
  a spine; every cross-rack frame rides two extra spine hops;
* ``nodes`` single-core memcached replicas placed round-robin across
  the racks, sharded by a :class:`~repro.net.cluster.ConsistentHashRing`
  with 2-way replication — per-request service cost scales with the
  value size, and every 4th key (including the Zipf-hottest) carries
  an 8x value, so replica queues are genuinely heterogeneous;
* an :class:`~repro.net.cluster.L4LoadBalancer` VIP on the rack-0
  SmartNIC steering each key within its replica set by one of three
  policies (``round_robin`` / ``least_loaded`` / ``p2c``); replies
  return direct-server-return, bypassing the VIP;
* one flyweight :class:`~repro.net.population.ClientPopulation` per
  ToR port (DESIGN.md §4.13) driving Zipf-keyed GET traffic at the VIP.

The campaign's three knobs ask the three scale-out questions:

* ``policy`` — under skewed keys and heterogeneous service times,
  queue-aware steering (p2c, least-loaded) must beat depth-blind
  round-robin on p99 at the full replica count;
* ``nodes`` — goodput and p99 versus cluster size at fixed offered
  load (2 replicas saturate; 8 ride well under the knee);
* ``failover`` — a :class:`~repro.faults.RackFailure` kills rack 1
  mid-measurement: the ring rehomes its shards to live successors, the
  VIP's health checks steer around the dead replicas, and the
  per-bucket goodput timeline shows the dip and the recovery.

Determinism: arrivals, Zipf draws, and p2c candidate picks all ride
named RNG streams; the failover window and the timeline sampler ride
``env.defer`` — rows are bit-identical across ``--jobs 1/N`` at a
fixed seed (pinned by ``tests/experiments/test_e18_cluster.py``).
"""

from ..apps.memcached import MemcachedServer, encode_get
from ..config import XEON_VMA
from ..faults import FaultInjector, FaultSchedule, RackFailure
from ..net import Address, ClientPopulation, ConsistentHashRing, \
    L4LoadBalancer, PayloadPool, PoissonPopulation, shard_preload
from ..telemetry.instruments import LogHistogram
from .base import krps
from .campaign import Campaign, Component, Knob

RACKS = 2
VIP = "10.0.0.100"
PORT = 11211

KEYS = 128
VALUE_BYTES = 32
#: every HEAVY_EVERY-th key (key 0 included — the Zipf-hottest) holds
#: an 8x value, making per-request service cost genuinely skewed
HEAVY_EVERY = 4
HEAVY_SCALE = 8
ZIPF_SKEW = 0.99
REPLICATION = 2

#: offered load across both ToR ports (requests/us); sized so the
#: 8-replica baseline runs hot (queue-depth differences matter to the
#: tail) while staying under its knee
TOTAL_RATE = 0.40
TIMEOUT_US = 4000.0
#: fixed-width goodput buckets sampled over the measure window
TIMELINE_BUCKETS = 10
#: the rack-1 outage, as fractions of the measure window
FAIL_AT, FAIL_FOR = 0.40, 0.30


def _key(i):
    return b"user-%03d" % i


def _value(i):
    scale = HEAVY_SCALE if i % HEAVY_EVERY == 0 else 1
    return b"v" * (VALUE_BYTES * scale)


def _op_cost(msg, result):
    """Per-request service cost (us): base dict op plus value movement.

    GETs return the value, so heavy keys cost ~5x a light one — the
    heterogeneity that separates queue-aware steering from round-robin.
    """
    return 1.5 + 0.04 * len(result)


class _GoodputTimeline:
    """Deterministic per-bucket goodput sampler (failover timeline).

    Rides recursive ``env.defer`` at fixed sim-time boundaries — never
    wall clock — so the timeline is bit-identical across backends and
    job counts.  Each sample is the response count landed in one
    bucket, across every population.
    """

    __slots__ = ("env", "pops", "bucket_us", "left", "samples", "_last")

    def __init__(self, env, pops, bucket_us, buckets):
        self.env = env
        self.pops = pops
        self.bucket_us = bucket_us
        self.left = buckets
        self.samples = []
        self._last = 0

    def _total(self):
        total = 0
        for pop in self.pops:
            pop.flush()
            total += pop.responses.count
        return total

    def start(self):
        """Begin sampling (call at the measurement-window start)."""
        self._last = self._total()
        self.env.defer(self.bucket_us, self._tick)

    def _tick(self, _event):
        total = self._total()
        self.samples.append(total - self._last)
        self._last = total
        self.left -= 1
        if self.left > 0:
            self.env.defer(self.bucket_us, self._tick)

    def finish(self):
        """Flush the final bucket: its boundary tick lands exactly at
        the run's ``until`` and the kernel stops before processing it,
        so the tail sample is taken here (same instant, same state)."""
        if self.left > 0:
            self._tick(None)

    def krps(self):
        """Per-bucket goodput in Kreq/s."""
        return [round(n / self.bucket_us * 1e3, 1) for n in self.samples]


def cluster_scenario(policy, nodes, failover, warmup, measure, seed=42,
                     rate=TOTAL_RATE):
    """One grid point: a full cluster deployment, driven and measured."""
    from .testbed import Testbed

    tb = Testbed(seed=seed, racks=RACKS)
    env = tb.env
    net = tb.network
    net.place(VIP, 0)

    # Replicas, round-robin across racks, one Xeon core each.
    backends = []
    for i in range(nodes):
        rack = i % RACKS
        ip = "10.0.%d.%d" % (rack, 10 + i)
        net.place(ip, rack)
        machine = tb.machine(ip)
        server = MemcachedServer(env, machine.nic,
                                 machine.pool(count=1, name="mc%d" % i),
                                 XEON_VMA, op_cost_fn=_op_cost)
        backends.append((ip, machine, server))

    # Consistent-hash sharding with 2-way replication; the preload puts
    # each key on exactly its ring owners.
    ring = ConsistentHashRing([ip for ip, _, _ in backends])
    items = [(_key(i), _value(i)) for i in range(KEYS)]
    shard_preload(ring, {ip: server.store for ip, _, server in backends},
                  items, replication=REPLICATION)

    lb = L4LoadBalancer(env, net, VIP, port=PORT, policy=policy,
                        rng=tb.rng, ring=ring, replication=REPLICATION)
    for ip, machine, _server in backends:
        # Steering signal: the replica's NIC RX-ring occupancy.
        lb.add_backend(Address(ip, PORT),
                       depth=lambda rx=machine.nic.rx: len(rx._items))

    # One flyweight population per ToR port, each carrying half the
    # offered load at the VIP with Zipf-hot keys.
    gets = [encode_get(_key(i)) for i in range(KEYS)]
    vip_addr = Address(VIP, PORT)
    pops = []
    for rack in range(RACKS):
        ip = "10.0.%d.200" % rack
        net.place(ip, rack)
        pool = PayloadPool.zipf(
            gets, tb.rng.stream("population.keys.r%d" % rack),
            skew=ZIPF_SKEW)
        source = PoissonPopulation(
            rate / RACKS, tb.rng.stream("population.r%d" % rack))
        pops.append(ClientPopulation(env, net, ip, vip_addr, source, pool,
                                     timeout=TIMEOUT_US))

    injector = None
    if failover:
        t0 = env.now + warmup
        schedule = FaultSchedule([
            RackFailure(rack=1, start=t0 + FAIL_AT * measure,
                        duration=FAIL_FOR * measure)])
        injector = FaultInjector(schedule).arm(env=env, network=net,
                                               rng=tb.rng)

    timeline = _GoodputTimeline(env, pops, measure / TIMELINE_BUCKETS,
                                TIMELINE_BUCKETS)
    env.run(until=env.now + warmup)
    for pop in pops:
        pop.reset()
    timeline.start()
    env.run(until=env.now + measure)
    timeline.finish()
    for pop in pops:
        pop.flush()

    latency = LogHistogram()
    for pop in pops:
        latency.merge(pop.latency.snapshot())
    hits = sum(server.store.hits for _, _, server in backends)
    misses = sum(server.store.misses for _, _, server in backends)
    return {
        "offered_per_sec": sum(p.offered_per_sec() for p in pops),
        "goodput_per_sec": sum(p.delivered_per_sec() for p in pops),
        "p99_us": latency.p99(),
        "p50_us": latency.percentile(50),
        "timeouts": sum(p.timeouts for p in pops),
        "steered": lb.backend_counts(),
        "unrouted": lb.unrouted,
        "rack_down_drops": net.dropped_rack_down,
        "spine_drops": sum(hop.dropped for hop in
                           net._uplinks + net._downlinks),
        "miss_rate": misses / max(1, hits + misses),
        "timeline_krps": timeline.krps(),
        "faults_injected": injector.total("injected") if injector else 0,
        "faults_recovered": injector.total("recovered") if injector else 0,
    }


def _row(ctx, variant, value):
    a = variant.assignment
    return dict(
        variant=str(variant.token),
        policy=a["policy"], nodes=a["nodes"],
        failover="rack-1-outage" if a["failover"] else "none",
        goodput_krps=krps(value["goodput_per_sec"]),
        p99_us=round(value["p99_us"], 1),
        timeouts=value["timeouts"],
        miss_rate=round(value["miss_rate"], 3),
        rack_down_drops=value["rack_down_drops"],
        spine_drops=value["spine_drops"])


def _finish(ctx, result):
    base = ctx.baseline_value
    rr = ctx.value("policy=round_robin")
    result.note("steering at 8 replicas under Zipf(%.2f) keys: p2c p99 "
                "%.1fus vs round-robin %.1fus — two depth probes beat a "
                "depth-blind rotation when hot keys cost 5x"
                % (ZIPF_SKEW, base["p99_us"], rr["p99_us"]))
    fo = ctx.value("failover=True")
    result.note("rack-1 outage (%.0f%%..%.0f%% of the window): goodput "
                "timeline Kreq/s per bucket = %s; ring rehoming + VIP "
                "health checks recover the surviving rack's capacity, "
                "%d frames dropped rack-down"
                % (100 * FAIL_AT, 100 * (FAIL_AT + FAIL_FOR),
                   fo["timeline_krps"], fo["rack_down_drops"]))


CAMPAIGN = Campaign(
    "E18", "multi-rack cluster scale-out behind a SmartNIC L4 VIP",
    "extension (DESIGN.md §4.15)",
    scenario=cluster_scenario,
    slug="cluster_scaleout_study",
    summary="goodput/p99 vs replica count, steering policy, and a "
            "rack failure on the multi-rack fabric",
    components=[
        Component(
            "steering",
            [Knob("policy", values=("p2c", "round_robin", "least_loaded"),
                  baseline="p2c", kwarg="policy",
                  doc="how the VIP picks within a key's replica set")],
            doc="the SmartNIC L4 datapath's replica-selection policy"),
        Component(
            "scale",
            [Knob("nodes", values=(8, 4, 2), baseline=8, kwarg="nodes",
                  doc="memcached replicas, round-robin across racks")],
            doc="cluster size at fixed offered load"),
        Component(
            "fault-domain",
            [Knob("failover", values=(False, True), baseline=False,
                  kwarg="failover",
                  doc="kill rack 1 for 30%% of the measure window")],
            doc="racks are fault domains; the ring and the VIP's "
                "health checks recover the surviving capacity"),
    ],
    settings=lambda fast: dict(warmup=4000.0 if fast else 10000.0,
                               measure=20000.0 if fast else 60000.0),
    row=_row,
    metric="goodput_krps",
    notes=("replies return direct-server-return: the VIP rewrites the "
           "request's destination, the replica answers the client "
           "straight through the fabric",),
    finish=_finish,
)


def run(fast=True, seed=42, jobs=None):
    """Run this experiment; see the module docstring for the context."""
    return CAMPAIGN(fast=fast, seed=seed, jobs=jobs)
