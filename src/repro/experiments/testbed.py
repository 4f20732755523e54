"""Testbed factory: assembles the paper's hardware setups (§6).

The evaluation testbed is two client and four server machines (Xeon
E5-2620v2) behind a Mellanox SN2100 switch; one server has a 25Gbps
Bluefield, one a 40Gbps Innova, two have plain ConnectX-4 NICs and host
the remote GPUs.  :class:`Testbed` builds any subset of that on demand.
"""

from .. import units
from ..config import (
    BluefieldProfile,
    DEFAULT_CONFIG,
    InnovaProfile,
    VcaProfile,
    XEON_E5_2620,
    XEON_VMA,
    XEON_KERNEL,
)
from ..errors import ConfigError
from ..hw import BluefieldSNIC, InnovaSNIC, IntelVCA, Machine
from ..lynx import LynxRuntime, LynxServer
from ..net import Client, MultiRackNetwork, Network
from ..sim import Environment, RngRegistry, Tracer


#: process-wide config override installed by the CLI (see
#: :func:`set_active_config`); ``None`` means DEFAULT_CONFIG.
_active_config = None


def set_active_config(config):
    """Install *config* as the default for testbeds built without one.

    Experiment modules expose only ``run(fast, seed)``, so the CLI's
    ``--trace-channel`` reaches their testbeds through this hook.  The
    CLI runs serially when it is set, so sweep workers never need it.
    Pass ``None`` to reset.
    """
    global _active_config
    _active_config = config


def active_config():
    return _active_config


class Testbed:
    """One simulated rack — or, with ``racks=N``, a multi-rack cluster."""

    #: not a pytest test class, despite the name
    __test__ = False

    def __init__(self, config=None, seed=None, racks=None):
        self.config = config or _active_config or DEFAULT_CONFIG
        if seed is not None:
            self.config = self.config.with_(seed=seed)
        self.env = Environment()
        #: event tracer (enabled via SimConfig.trace) — installed on the
        #: environment *before* any Channel exists, so every hop built
        #: by this testbed picks it up at construction time
        self.tracer = Tracer(self.env, enabled=self.config.trace)
        self.env.tracer = self.tracer
        self.rng = RngRegistry(self.config.seed)
        #: single-switch fabric by default; ``racks=N`` swaps in the
        #: multi-rack spine fabric (DESIGN.md §4.15) before any
        #: endpoint attaches, so every wire is built on it
        if racks is None:
            self.network = Network(self.env)
        else:
            self.network = MultiRackNetwork(self.env, racks=racks)
        self.machines = {}
        self.clients = {}

    # -- building blocks ---------------------------------------------------------

    def machine(self, ip, cpu_profile=XEON_E5_2620,
                nic_rate=units.gbps(40), name=None):
        if ip in self.machines:
            return self.machines[ip]
        m = Machine(self.env, self.network, ip, self.config,
                    cpu_profile=cpu_profile, nic_rate=nic_rate,
                    rng_registry=self.rng, name=name)
        self.machines[ip] = m
        return m

    def client(self, ip, name=None):
        if ip in self.clients:
            return self.clients[ip]
        c = Client(self.env, self.network, ip, rng=self.rng, name=name)
        self.clients[ip] = c
        return c

    def bluefield(self, ip, profile=None, name=None):
        return BluefieldSNIC(self.env, self.network, ip,
                             profile or BluefieldProfile(),
                             self.config.cache,
                             self.rng.stream("bluefield-%s.llc" % ip),
                             name=name)

    def innova(self, ip, profile=None, name=None):
        return InnovaSNIC(self.env, self.network, ip,
                          profile or InnovaProfile(), name=name)

    def vca(self, profile=None, name="vca"):
        return IntelVCA(self.env, profile or VcaProfile(), self.config.cache,
                        self.rng.stream("%s.llc" % name), name=name)

    # -- Lynx deployments ------------------------------------------------------------

    def lynx_on_bluefield(self, snic, name=None):
        """The complete Lynx prototype on the Bluefield SNIC (§5.1)."""
        server = LynxServer(self.env, snic.nic, snic.workers,
                            snic.stack_profile, self.config.lynx,
                            name=name or "lynx@%s" % snic.nic.ip,
                            tracer=self.tracer)
        return LynxRuntime(self.env, server, self.config), server

    def lynx_on_host(self, machine, cores=1, stack=XEON_VMA, name=None):
        """Lynx source-compatible build running on host Xeon cores (§5.1)."""
        if cores < 1 or cores > machine.socket.profile.cores:
            raise ConfigError("invalid core count %d" % cores)
        pool = machine.pool(count=cores,
                            name="%s-lynx-pool" % machine.name)
        server = LynxServer(self.env, machine.nic, pool, stack,
                            self.config.lynx,
                            name=name or "lynx@%s" % machine.ip,
                            tracer=self.tracer)
        return LynxRuntime(self.env, server, self.config), server

    # -- simulation control -------------------------------------------------------------

    def run(self, until=None):
        return self.env.run(until=until)

    def warmup_then_measure(self, recorders, warmup, measure):
        """Run *warmup* us, reset *recorders*, run *measure* us more."""
        self.env.run(until=self.env.now + warmup)
        for rec in recorders:
            rec.reset()
        self.env.run(until=self.env.now + measure)
