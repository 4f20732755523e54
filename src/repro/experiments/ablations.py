"""Ablation studies of Lynx's design choices, as campaign declarations.

These go beyond the paper's tables: each isolates one design decision
DESIGN.md calls out and quantifies it on the simulator.  Every study is
a :class:`~.campaign.Campaign` declaration (DESIGN.md §4.12): a
component registers its knobs against the config surface or the
scenario signature, the engine generates the grid as sweep
:class:`~.sweep.Point`\\ s (module-level scenario builders, picklable
kwargs, so ``--jobs N`` fans the whole ``--extras`` suite across worker
processes), and per-component importance scores fall out of the
telemetry snapshot deltas.

The study list at the bottom of this docstring is generated from the
campaign registry at import time — it cannot drift from the code.
"""

from ..apps.base import SpinApp
from ..baseline.gpu_centric import GpuCentricServer, RDMA_PROTO
from ..config import K40M
from ..lynx.dispatch import make_policy
from ..net import Address, ClosedLoopGenerator, OnOffPopulation
from ..net.packet import UDP
from .base import krps
from .campaign import Campaign, Component, Knob, describe
from .common import LYNX_BLUEFIELD, LYNX_XEON_6, deploy, \
    measure_closed_loop, measure_population
from .testbed import Testbed


# ---------------------------------------------------------------------------
# Lynx vs GPU-centric
# ---------------------------------------------------------------------------

_GC_KERNEL_US = 200.0


def _gc_scenario(design, measure, seed=42):
    """One grid point of the §3.3 comparison.

    ``design == "lynx"`` runs Lynx on the host Xeon (every threadblock
    serves the app); an integer runs the GPU-centric server with that
    many I/O threadblocks carved out of the GPU.
    """
    if design == "lynx":
        dep = deploy(LYNX_XEON_6, app=SpinApp(_GC_KERNEL_US), n_mqueues=240,
                     proto=UDP, seed=seed)
        clients = [dep.tb.client("10.0.9.%d" % i) for i in (1, 2)]
        for c in clients:
            ClosedLoopGenerator(dep.env, c, dep.address, concurrency=300,
                                payload_fn=lambda i: b"x" * 64, proto=UDP,
                                timeout=100000)
        dep.tb.warmup_then_measure([c.responses for c in clients], 20000.0,
                                   measure)
        return sum(c.responses.per_sec() for c in clients)
    io_tbs = design
    tb = Testbed(seed=seed)
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu(K40M)
    GpuCentricServer(env, host, gpu, SpinApp(_GC_KERNEL_US), port=7777,
                     app_threadblocks=240 - io_tbs,
                     io_threadblocks=io_tbs, helper_cores=3)
    gc_clients = [tb.client("10.0.9.%d" % i) for i in (1, 2)]
    for c in gc_clients:
        ClosedLoopGenerator(env, c, Address("10.0.0.1", 7777),
                            concurrency=300,
                            payload_fn=lambda i: b"x" * 64,
                            proto=RDMA_PROTO, timeout=100000)
    tb.warmup_then_measure([c.responses for c in gc_clients], 20000.0,
                           measure)
    return sum(c.responses.per_sec() for c in gc_clients)


def _gc_row(ctx, variant, value):
    if variant.is_baseline:
        return dict(design="lynx-on-xeon-6core", app_threadblocks=240,
                    krps=krps(value), relative=1.0)
    io_tbs = variant.assignment["design"]
    return dict(design="gpu-centric (%d I/O TBs)" % io_tbs,
                app_threadblocks=240 - io_tbs, krps=krps(value),
                relative=round(value / ctx.baseline_value, 3))


gpu_centric_comparison = Campaign(
    "ABL-GC", "Lynx vs GPU-centric (GPU-side network stack)",
    "§3.3 ablation",
    scenario=_gc_scenario,
    slug="gpu_centric_comparison",
    summary="Lynx vs the §3.3 GPU-centric design (GPU-side network "
            "stack): I/O threadblocks and per-message GPU stack time "
            "cost application throughput",
    components=[Component(
        "host-termination",
        # Compare on equal CPU silicon (Lynx on the host Xeon) so the
        # delta isolates the GPU resources the GPU-centric stack
        # consumes, not ARM-vs-Xeon speed.
        [Knob("design", values=("lynx", 16, 40, 80), baseline="lynx",
              kwarg="design",
              doc="who runs the network stack: Lynx on host cores, or "
                  "the GPU itself with N I/O threadblocks")],
        doc="terminating the network off the GPU keeps all 240 "
            "threadblocks serving the application")],
    settings=lambda fast: dict(measure=60000.0 if fast else 200000.0),
    row=_gc_row,
    metric="krps",
    notes=("the GPU-centric design also forfeits UDP/TCP clients "
           "entirely (RDMA transport only)",),
)


# ---------------------------------------------------------------------------
# Dispatch policies under skew
# ---------------------------------------------------------------------------

class SkewedApp(SpinApp):
    """1 in 8 requests is 10x more expensive."""

    name = "skewed"

    def __init__(self):
        super().__init__(40.0)
        self._count = 0

    def handle(self, ctx, entry):
        self._count += 1
        duration = 400.0 if self._count % 8 == 0 else 40.0
        yield from ctx.compute(duration)
        return b"done"


def _dispatch_scenario(policy_name, measure, seed=42):
    dep = deploy(LYNX_BLUEFIELD, app=SkewedApp(), n_mqueues=8,
                 proto=UDP, seed=seed)
    binding = dep.server._ports[7777]
    binding.policy = make_policy(policy_name)
    tput, latency = measure_closed_loop(
        dep, lambda i: b"x" * 64, concurrency=16, warmup=20000.0,
        measure=measure)
    return tput, latency.p50(), latency.p99()


def _dispatch_row(ctx, variant, value):
    tput, p50, p99 = value
    return dict(policy=variant.assignment["dispatch.policy"],
                krps=krps(tput), p50_us=round(p50, 1), p99_us=round(p99, 1))


dispatch_policy_study = Campaign(
    "ABL-DP", "Dispatch policies under skewed request cost",
    "§4.2 ablation",
    scenario=_dispatch_scenario,
    slug="dispatch_policy_study",
    summary="round-robin vs least-loaded vs client-steering under a "
            "skewed client population (§4.2's policies)",
    components=[Component(
        "dispatcher",
        [Knob("dispatch.policy",
              values=("round-robin", "least-loaded", "steering"),
              baseline="round-robin", kwarg="policy_name",
              doc="mqueue selection policy for ingress dispatch")],
        doc="skewed per-request service times: least-loaded shines, "
            "steering pins clients, round-robin splits the difference")],
    settings=lambda fast: dict(measure=60000.0 if fast else 200000.0),
    row=_dispatch_row,
    metric="p99_us",
    higher_is_better=False,
    notes=("least-loaded avoids queueing behind the 10x requests; "
           "steering trades balance for per-client affinity",),
)


# ---------------------------------------------------------------------------
# Metadata coalescing
# ---------------------------------------------------------------------------

def _coalescing_scenario(config, measure, seed=42):
    dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0), n_mqueues=1,
                 proto=UDP, seed=seed, config=config)
    tput, latency = measure_closed_loop(
        dep, lambda i: b"x" * 64, concurrency=1, warmup=10000.0,
        measure=measure)
    ops = dep.service.manager.qp.ops / max(1, dep.service.delivered)
    return latency.p50(), ops


def _coalescing_row(ctx, variant, value):
    p50, ops = value
    return dict(coalescing="on" if variant.assignment["coalescing"]
                else "off",
                p50_us=round(p50, 1), rdma_ops_per_msg=round(ops, 2))


def _coalescing_finish(ctx, result):
    on = result.find(coalescing="on")
    off = result.find(coalescing="off")
    result.note("coalescing saves %.1fus and %.1f RDMA ops per message"
                % (off["p50_us"] - on["p50_us"],
                   off["rdma_ops_per_msg"] - on["rdma_ops_per_msg"]))


coalescing_study = Campaign(
    "ABL-CO", "Metadata/data coalescing on vs off", "§5.1 ablation",
    scenario=_coalescing_scenario,
    slug="coalescing_study",
    summary="the §5.1 metadata/data coalescing optimization on vs off "
            "(1 vs 2 RDMA writes per delivery)",
    components=[Component(
        "coalescing",
        [Knob("coalescing", values=(True, False), baseline=True,
              config="lynx.coalesce_metadata",
              doc="append the 4B metadata to the payload (§5.1), "
                  "halving the RDMA writes per delivery")])],
    settings=lambda fast: dict(measure=40000.0 if fast else 120000.0),
    row=_coalescing_row,
    metric="p50_us",
    higher_is_better=False,
    finish=_coalescing_finish,
)


# ---------------------------------------------------------------------------
# Ring sizing
# ---------------------------------------------------------------------------

def _ring_scenario(config, measure, seed=42):
    kernel_us = 100.0
    service_rate = 1.0 / (kernel_us + 10.0)
    dep = deploy(LYNX_BLUEFIELD, app=SpinApp(kernel_us), n_mqueues=1,
                 proto=UDP, seed=seed, config=config)
    # bursts at 8x the service rate, on 1/4 of the time => ~2x mean
    source = OnOffPopulation(8.0 * service_rate, 2000.0, 6000.0,
                             dep.tb.rng.stream("population"))
    pop = measure_population(dep, b"x" * 64, None, warmup=20000.0,
                             measure=measure, source=source)
    delivered = dep.service.delivered
    dropped = dep.service.dropped
    return (pop.delivered_per_sec(),
            dropped / max(1, dropped + delivered),
            pop.percentile(50))


def _ring_row(ctx, variant, value):
    goodput, drop_rate, p50 = value
    return dict(ring_entries=variant.assignment["mqueue.ring_entries"],
                goodput_krps=krps(goodput), drop_rate=round(drop_rate, 3),
                p50_us=round(p50, 1))


ring_size_study = Campaign(
    "ABL-RS", "mqueue ring depth under bursty 2x overload",
    "§4.2 ablation",
    scenario=_ring_scenario,
    slug="ring_size_study",
    summary="mqueue ring depth vs drop rate and latency under bursty "
            "overload",
    components=[Component(
        "mqueue",
        [Knob("mqueue.ring_entries", values=(4, 16, 64, 256), baseline=64,
              config="lynx.ring_entries",
              doc="entries per mqueue ring: trades drop rate against "
                  "queueing delay under bursty overload")])],
    settings=lambda fast: dict(measure=50000.0 if fast else 150000.0),
    row=_ring_row,
    metric="goodput_krps",
    notes=("bigger rings shed the same overload but convert drops "
           "into queueing delay — classic buffer sizing",),
)


# ---------------------------------------------------------------------------
# Sweep interval
# ---------------------------------------------------------------------------

def _sweep_interval_scenario(config, measure, seed=42):
    dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0), n_mqueues=8,
                 proto=UDP, seed=seed, config=config)
    tput, latency = measure_closed_loop(
        dep, lambda i: b"x" * 64, concurrency=8, warmup=10000.0,
        measure=measure)
    return tput, latency.p50(), dep.service.manager.sweeps


def _sweep_interval_row(ctx, variant, value):
    tput, p50, sweeps = value
    return dict(sweep_interval_us=variant.assignment["rmq.sweep_interval"],
                krps=krps(tput), p50_us=round(p50, 1), sweeps=sweeps)


sweep_interval_study = Campaign(
    "ABL-SW", "Remote MQ Manager sweep interval", "§5.1 ablation",
    scenario=_sweep_interval_scenario,
    slug="sweep_interval_study",
    summary="the Remote MQ Manager's TX poll cadence vs latency and "
            "SNIC core burn — sweeps are doorbell-armed, so the "
            "interval buys fewer, larger sweeps rather than latency",
    components=[Component(
        "rmq-manager",
        [Knob("rmq.sweep_interval", values=(0.5, 1.0, 4.0, 16.0),
              baseline=1.0, config="lynx.sweep_interval",
              doc="minimum interval between TX doorbell sweeps of one "
                  "accelerator's rings")])],
    settings=lambda fast: dict(measure=40000.0 if fast else 120000.0),
    row=_sweep_interval_row,
    metric="krps",
)


# ---------------------------------------------------------------------------
# Connection scaling
# ---------------------------------------------------------------------------

def _connection_scenario(n_conns, n_mqueues, measure, seed=42):
    from ..net.packet import TCP

    dep = deploy(LYNX_BLUEFIELD, app=SpinApp(100.0),
                 n_mqueues=n_mqueues, proto=TCP, seed=seed)
    clients = [dep.tb.client("10.0.9.%d" % i) for i in (1, 2)]
    for c in clients:
        # each closed-loop worker owns one TCP connection
        ClosedLoopGenerator(dep.env, c, dep.address,
                            concurrency=n_conns // 2,
                            payload_fn=lambda i: b"x" * 64,
                            proto=TCP, timeout=200000)
    dep.tb.warmup_then_measure([c.responses for c in clients],
                               30000.0, measure)
    tput = sum(c.responses.per_sec() for c in clients)
    return tput, len(dep.service.mqueues)


def _connection_row(ctx, variant, value):
    tput, rings = value
    return dict(connections=variant.assignment["net.connections"],
                mqueues=4, krps=krps(tput), accel_rings=rings)


connection_scaling_study = Campaign(
    "ABL-CS", "TCP connection scaling over a fixed mqueue pool",
    "§4.5 ablation",
    scenario=_connection_scenario,
    slug="connection_scaling_study",
    summary="§4.5: multiplexing many TCP connections over a fixed "
            "mqueue pool must not collapse throughput or grow "
            "accelerator-side state",
    components=[Component(
        "connection-mux",
        [Knob("net.connections",
              values=lambda fast: (4, 32, 128) if fast
              else (4, 16, 64, 128, 256),
              baseline=4, kwarg="n_conns",
              doc="TCP client connections multiplexed over the fixed "
                  "4-mqueue pool")])],
    settings=lambda fast: dict(n_mqueues=4,
                               measure=50000.0 if fast else 150000.0),
    row=_connection_row,
    metric="krps",
    notes=("accelerator-side state stays at 4 rings regardless of "
           "the connection count; throughput saturates at the SNIC "
           "TCP limit without collapsing",),
)


# ---------------------------------------------------------------------------
# Host-centric core scaling (the driver bottleneck)
# ---------------------------------------------------------------------------

def _driver_contention_scenario(cores, measure, seed=42):
    from .common import HOST_CENTRIC

    dep = deploy(HOST_CENTRIC, app=SpinApp(20.0), proto=UDP, seed=seed,
                 hc_cores=cores)
    clients = [dep.tb.client("10.0.9.%d" % i) for i in (1, 2)]
    for c in clients:
        ClosedLoopGenerator(dep.env, c, dep.address, concurrency=32,
                            payload_fn=lambda i: b"x" * 64, proto=UDP,
                            timeout=100000)
    dep.tb.warmup_then_measure([c.responses for c in clients],
                               15000.0, measure)
    tput = sum(c.responses.per_sec() for c in clients)
    driver = dep.host.driver
    return tput, driver.contended_ops / max(1, driver.ops)


def _driver_contention_row(ctx, variant, value):
    tput, share = value
    return dict(cores=variant.assignment["host.serving_cores"],
                krps=krps(tput), contended_op_share=round(share, 2))


driver_contention_study = Campaign(
    "ABL-DC", "Host-centric serving cores vs the driver lock",
    "§6.1 ablation",
    scenario=_driver_contention_scenario,
    slug="driver_contention_study",
    summary="§6.1: \"more threads result in a slowdown due to an "
            "NVIDIA driver bottleneck\" — measured",
    components=[Component(
        "host-driver",
        [Knob("host.serving_cores", values=(1, 2, 4, 6), baseline=1,
              kwarg="cores",
              doc="host-centric serving cores contending on the "
                  "driver lock")])],
    settings=lambda fast: dict(measure=40000.0 if fast else 120000.0),
    row=_driver_contention_row,
    metric="krps",
    notes=("adding serving cores increases driver-lock contention "
           "faster than it adds useful work",),
)


# ---------------------------------------------------------------------------
# Projected full Innova (§5.2)
# ---------------------------------------------------------------------------

def _innova_scenario(platform, measure, seed=42):
    """64B echo on the projected full Innova or on Bluefield."""
    if platform == "bluefield":
        from .common import measure_saturation

        dep = deploy(LYNX_BLUEFIELD, app=SpinApp(0.0), n_mqueues=240,
                     proto=UDP, seed=seed)
        return measure_saturation(dep, lambda i: b"x" * 64, 1.5e6,
                                  warmup=10000.0, measure=measure)
    from ..config import INNOVA_PROJECTED, K40M
    from ..lynx.innova import InnovaLynxServer
    from ..lynx.iolib import AcceleratorIO
    from ..lynx.mqueue import MQueue
    from ..net.packet import Address, Message

    tb = Testbed(seed=seed)
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu(K40M)
    snic = tb.innova("10.0.0.101", profile=INNOVA_PROJECTED)
    server = InnovaLynxServer(env, snic, helper_pool=None)
    n_mq = 240
    mqs = [MQueue(env, gpu.memory, entries=64, name="fmq%d" % i)
           for i in range(n_mq)]
    server.bind(7777, mqs)
    io = AcceleratorIO(env, gpu.poll_latency)

    def body(tb_index):
        mq = mqs[tb_index]
        while True:
            entry = yield from io.recv(mq)
            yield from io.send(mq, entry.payload, reply_to=entry)

    gpu.persistent_kernel(n_mq, body)

    src = Address("10.0.8.1", 5555)

    def flood(env):
        while True:
            tb.network.deliver(Message(src, Address("10.0.0.101", 7777),
                                       b"x" * 64, proto=UDP))
            yield env.timeout(0.2)  # 5M/s offered

    env.process(flood(env), name="flood")
    tb.warmup_then_measure([server.responses], 4000.0, measure)
    return server.responses.per_sec()


def _innova_row(ctx, variant, value):
    if variant.assignment["platform"] == "innova":
        return dict(platform="innova-projected (full loop)",
                    mpps=round(value / 1e6, 2), vs_bluefield=None)
    return dict(platform="bluefield (full loop)",
                mpps=round(value / 1e6, 3),
                vs_bluefield=round(ctx.value("innova") / value, 1))


def _innova_point_kwargs(fast, variant):
    # the Bluefield loop is ~15x slower; give it a 4x longer window so
    # the measured rate settles
    if variant.assignment["platform"] == "bluefield":
        return dict(measure=(8000.0 if fast else 20000.0) * 4)
    return {}


projected_innova_study = Campaign(
    "ABL-IN", "Projected full-duplex Innova vs Bluefield (64B echo)",
    "§5.2 projection",
    scenario=_innova_scenario,
    slug="projected_innova_study",
    summary="§5.2/§6.2: the projected full Innova (no CPU helper, TX "
            "in the AFU) vs Bluefield on the complete echo loop",
    components=[Component(
        "snic-platform",
        [Knob("platform", values=("innova", "bluefield"),
              baseline="bluefield", kwarg="platform",
              doc="which SmartNIC terminates the echo loop; Bluefield "
                  "is what the paper ships, the projected Innova is "
                  "the §5.2 what-if")])],
    settings=lambda fast: dict(measure=8000.0 if fast else 20000.0),
    row=_innova_row,
    metric="mpps",
    point_kwargs=_innova_point_kwargs,
    notes=("the paper's RX-only measurement showed 15x headroom "
           "(7.4M vs 0.5M pps); the projected full loop keeps a "
           "large specialized-hardware advantage",),
)


ALL_STUDIES = (gpu_centric_comparison, dispatch_policy_study,
               coalescing_study, ring_size_study, sweep_interval_study,
               connection_scaling_study, driver_contention_study,
               projected_innova_study)


# The study list is generated from the registry so it cannot drift from
# the declarations above (it used to: the hand-written version listed
# five of the eight studies).
__doc__ += "\n\n" + describe(ALL_STUDIES)
