"""Shared builders for the experiment suite: deploy a GPU service on any
of the paper's four server designs (§6.1) and drive it with load."""

from .. import telemetry
from ..apps.base import SpinApp
from ..baseline import HostCentricServer
from ..config import K40M
from ..net import Address, ClientPopulation, ClosedLoopGenerator, \
    OpenLoopGenerator, PayloadPool, PoissonPopulation
from ..net.packet import UDP
from .testbed import Testbed

#: the four evaluated designs (§6.1)
HOST_CENTRIC = "host-centric"
LYNX_BLUEFIELD = "lynx-bluefield"
LYNX_XEON_1 = "lynx-xeon-1core"
LYNX_XEON_6 = "lynx-xeon-6core"

ALL_DESIGNS = (HOST_CENTRIC, LYNX_XEON_1, LYNX_XEON_6, LYNX_BLUEFIELD)


class Deployment:
    """A deployed GPU service plus the handles experiments need."""

    def __init__(self, tb, design, server, service, address, host, gpu):
        self.tb = tb
        self.env = tb.env
        self.design = design
        self.server = server
        self.service = service
        self.address = address
        self.host = host
        self.gpu = gpu


def deploy(design, app=None, n_mqueues=1, proto=UDP, port=7777, seed=42,
           gpu_profile=K40M, config=None, hc_cores=1):
    """Stand up one of the four §6.1 server designs around *app*."""
    tb = Testbed(config=config, seed=seed)
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu(gpu_profile)
    app = app or SpinApp(100.0)
    if design == HOST_CENTRIC:
        server = HostCentricServer(env, host, [gpu], app, port=port,
                                   cores=hc_cores, proto=proto)
        service = None
        address = Address("10.0.0.1", port)
    else:
        if design == LYNX_BLUEFIELD:
            snic = tb.bluefield("10.0.0.100")
            runtime, server = tb.lynx_on_bluefield(snic)
            address = Address("10.0.0.100", port)
        else:
            cores = 1 if design == LYNX_XEON_1 else 6
            runtime, server = tb.lynx_on_host(host, cores=cores)
            address = Address("10.0.0.1", port)
        proc = env.process(runtime.start_gpu_service(
            gpu, app, port=port, n_mqueues=n_mqueues, proto=proto))
        env.run(until=200)
        service = proc.value
    return Deployment(tb, design, server, service, address, host, gpu)


def measure_saturation(dep, payload_fn, offered_per_sec, proto=UDP,
                       warmup=20000.0, measure=60000.0):
    """Open-loop overload from two clients: returns delivered
    responses/s."""
    reg = telemetry.registry()
    meters = []
    for i in range(2):
        client = dep.tb.client("10.0.9.%d" % (i + 1))
        OpenLoopGenerator(dep.env, client, dep.address,
                          offered_per_sec / 2 / 1e6, payload_fn,
                          proto=proto)
        # Fetched through the registry (DESIGN.md §4.9): the client
        # registers its live meters at construction, so this is the
        # same object — one measurement path, identical floats.
        meters.append(reg.get("net.client.%s.responses" % client.ip))
    dep.tb.warmup_then_measure(meters, warmup, measure)
    return sum(m.per_sec() for m in meters)


def measure_population(dep, payload, rate_per_us, warmup=20000.0,
                       measure=60000.0, timeout=None, source=None):
    """Flyweight open-loop drive (DESIGN.md §4.13).

    One :class:`ClientPopulation` offers Poisson load at *rate_per_us*
    (or from an explicit arrival *source*), every request carrying
    *payload*; returns the population with its measurement-window
    instruments populated (``percentile``/``delivered_per_sec``).
    Injection is frame-coalesced, so the load generator costs O(1)
    scheduler events per burst instead of ~5 per request.
    """
    tb = dep.tb
    if source is None:
        source = PoissonPopulation(rate_per_us, tb.rng.stream("population"))
    pop = ClientPopulation(tb.env, tb.network, "10.0.9.1", dep.address,
                           source, PayloadPool.single(payload),
                           timeout=timeout)
    tb.warmup_then_measure([pop], warmup, measure)
    pop.flush()
    return pop


def measure_closed_loop(dep, payload_fn, concurrency, proto=UDP,
                        warmup=20000.0, measure=60000.0, timeout=None):
    """Closed-loop drive: returns (throughput/s, latency recorder)."""
    reg = telemetry.registry()
    client = dep.tb.client("10.0.9.1")
    ClosedLoopGenerator(dep.env, client, dep.address, concurrency,
                        payload_fn, proto=proto, timeout=timeout)
    responses = reg.get("net.client.%s.responses" % client.ip)
    latency = reg.get("net.client.%s.latency" % client.ip)
    dep.tb.warmup_then_measure([responses, latency], warmup, measure)
    return responses.per_sec(), latency
