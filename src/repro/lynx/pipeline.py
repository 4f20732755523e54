"""Accelerator composition pipelines (the paper's stated next step).

§1/§8: "Lynx will serve as a stepping stone for a general
infrastructure targeting multi-accelerator systems which will enable
efficient composition of accelerators and CPUs in a single
application."  This module builds that composition out of the
mechanisms the paper already has:

* every stage is an ordinary Lynx GPU service on its own port;
* a stage reaches the next stage through a **client mqueue** whose
  static destination is the SNIC itself (a hairpin through the switch) —
  no new protocol, no host CPU;
* the final stage's result bubbles back along the chain of pending
  requests, and the front stage's server mqueue routes it to the
  original client.

Failure semantics come for free: a dead/stuck stage surfaces as an
error entry (§5.1 metadata) at its upstream neighbour.
"""

from ..errors import ConfigError
from ..net.packet import Address, UDP
from .mqueue import ERR_NONE

#: name of the implicit backend wiring stage i to stage i+1
NEXT_STAGE = "__next_stage__"

#: internal ports used for the non-public pipeline stages
_STAGE_PORT_BASE = 9800


class PipelineStage:
    """One accelerator stage: an app on an accelerator, one mqueue."""

    def __init__(self, gpu, app):
        self.gpu = gpu
        self.app = app


class _StageApp:
    """Wraps a stage's app: compute, then relay downstream if any."""

    use_dynamic_parallelism = False

    def __init__(self, app, has_next):
        self.app = app
        self.has_next = has_next
        self.name = "%s-stage" % app.name
        self.relay_errors = 0

    def handle(self, ctx, entry):
        if entry.error != ERR_NONE:
            self.relay_errors += 1
            return b""
        result = yield from self.app.handle(ctx, entry)
        if result is None or not self.has_next:
            return result
        reply = yield from ctx.call(NEXT_STAGE, result)
        if reply.error != ERR_NONE:
            self.relay_errors += 1
            return b""
        return reply.payload


class PipelineHandle:
    """Handle onto a started pipeline (stats for tests/examples)."""

    def __init__(self, services, stage_apps, ports):
        self.services = services
        self.stage_apps = stage_apps
        self.ports = ports

    @property
    def depth(self):
        return len(self.services)

    @property
    def relay_errors(self):
        return sum(app.relay_errors for app in self.stage_apps)


def start_pipeline(runtime, stages, port, proto=UDP):
    """Generator: bring up a multi-accelerator pipeline.

    *stages* is an ordered list of :class:`PipelineStage`; the first
    stage listens on the public *port*, later stages on internal ports.
    Returns a :class:`PipelineHandle`.
    """
    if not stages:
        raise ConfigError("a pipeline needs at least one stage")
    server = runtime.server
    services = []
    stage_apps = []
    ports = []
    next_port = None
    for index in reversed(range(len(stages))):
        stage = stages[index]
        stage_port = port if index == 0 else _STAGE_PORT_BASE + index
        wrapped = _StageApp(stage.app, has_next=next_port is not None)
        backends = {}
        if next_port is not None:
            backends[NEXT_STAGE] = (Address(server.ip, next_port), proto)
        service = yield from runtime.start_gpu_service(
            stage.gpu, wrapped, port=stage_port, proto=proto,
            backends=backends)
        services.append(service)
        stage_apps.append(wrapped)
        ports.append(stage_port)
        next_port = stage_port
    services.reverse()
    stage_apps.reverse()
    ports.reverse()
    return PipelineHandle(services, stage_apps, ports)
