"""Arming fault schedules onto a running deployment.

The :class:`FaultInjector` compiles a
:class:`~repro.faults.schedule.FaultSchedule` into hooks on the live
simulation objects:

* **wire faults** (loss, corruption, RX-ring stall) shadow the target
  wire :class:`~repro.sim.Channel`'s ``_land`` on the *instance* — the
  same per-instance shadowing the tracer uses — so an unarmed channel
  keeps the class's untouched fast path and pays nothing;
* **SNIC pauses/restarts** seize every worker core at a priority above
  the egress forwarder, so dispatcher and forwarder both stop; a
  restart additionally flushes the NIC RX ring;
* **accelerator outages** interrupt the service's threadblocks and mark
  the accelerator dark on the Lynx server (which sheds with error
  responses, §5.1); the window's end restarts the kernel, draining the
  rings first in ``crash`` mode.  On the host-centric baseline the same
  spec seizes every GPU SM slot instead.

Determinism: window boundaries ride ``env.defer`` and randomness comes
from named :class:`~repro.sim.RngRegistry` streams
(``faults.<kind>.<ip>``), so a fixed seed reproduces the exact fault
pattern; with no schedule armed, nothing here is reachable from any hot
path and fixed-seed runs are bit-identical to a build without faults.

Telemetry: every decision increments a ``faults.injected.*`` /
``faults.dropped.*`` / ``faults.recovered.*`` counter in the registry
scope current at :meth:`FaultInjector.arm` time, so sweeps merge fault
counts like every other instrument.
"""

from .. import telemetry
from ..errors import FaultError
from ..sim.channel import Channel, _msg_id
from .schedule import (
    ACCEL_CRASH,
    ACCEL_HANG,
    FaultSchedule,
    LINK_CORRUPTION,
    LINK_LOSS,
    RACK_FAILURE,
    RX_STALL,
    SNIC_PAUSE,
    SNIC_RESTART,
)

#: core-pool / SM-slot seizure priority: above the egress forwarder's
#: -1, so a pause wins the next free core ahead of all queued work
SEIZE_PRIORITY = -2


class _WireHook:
    """Per-instance ``_land`` shadow composing the wire faults on one
    channel: drop rules (loss/corruption) run first, then the stall
    buffer.  Installed while any wire fault targets the channel and
    removed when the last window ends, restoring the class fast path."""

    __slots__ = ("injector", "channel", "rules", "hold", "hold_limit",
                 "stall_depth")

    def __init__(self, injector, channel):
        self.injector = injector
        self.channel = channel
        self.rules = []
        self.hold = None
        self.hold_limit = 0
        self.stall_depth = 0
        channel._land = self._on_land

    def _on_land(self, _event):
        channel = self.channel
        item = channel._in_flight.popleft()
        rng = self.injector.rng
        for probability, stream, counter in self.rules:
            if rng.uniform(stream, 0.0, 1.0) < probability:
                channel.dropped += 1
                counter.inc()
                if channel._tracer is not None:
                    channel._tracer.emit(channel.name, "fault-drop",
                                         _msg_id(item))
                return
        if self.hold is not None:
            if len(self.hold) < self.hold_limit:
                self.hold.append(item)
            else:
                channel.dropped += 1
                self.injector._counter("dropped." + RX_STALL).inc()
                if channel._tracer is not None:
                    channel._tracer.emit(channel.name, "fault-drop",
                                         _msg_id(item))
            return
        self._deliver(item)

    def _deliver(self, item):
        # Channel._land's landing half (the popleft already happened).
        channel = self.channel
        if channel._sink.try_put(item):
            channel.delivered += 1
            if channel._tracer is not None:
                channel._tracer.emit(channel.name, "deliver", _msg_id(item))
        else:
            channel.dropped += 1
            if channel._tracer is not None:
                channel._tracer.emit(channel.name, "drop", _msg_id(item))

    # -- stall windows -----------------------------------------------------

    def begin_stall(self, buffer_limit):
        if self.hold is None:
            self.hold = []
            self.hold_limit = buffer_limit
        self.stall_depth += 1

    def end_stall(self, recovered):
        self.stall_depth -= 1
        if self.stall_depth > 0:
            return
        held, self.hold = self.hold, None
        if held:
            recovered.inc(len(held))
            for item in held:
                self._deliver(item)

    # -- lifecycle ---------------------------------------------------------

    def maybe_remove(self):
        """Drop the instance shadow once no fault targets the channel."""
        if not self.rules and self.hold is None:
            del self.channel._land
            self.injector._hooks.pop(self.channel, None)


class FaultInjector:
    """Arms one :class:`FaultSchedule` onto one deployment."""

    def __init__(self, schedule):
        if not isinstance(schedule, FaultSchedule):
            raise FaultError("FaultInjector needs a FaultSchedule, got %r"
                             % (schedule,))
        self.schedule = schedule
        self.env = None
        self.rng = None
        self.network = None
        self.server = None
        self.service = None
        self.gpu = None
        self._armed = False
        self._registry = None
        self._counters = {}
        self._hooks = {}
        self._active = {}

    # -- arming ------------------------------------------------------------

    def arm(self, deployment=None, env=None, network=None, rng=None,
            server=None, service=None, gpu=None):
        """Compile the schedule onto *deployment* (or explicit targets).

        *deployment* is anything shaped like
        :class:`repro.experiments.common.Deployment`; individual
        keywords override or replace it for hand-built testbeds.
        Returns self.
        """
        if self._armed:
            raise FaultError("injector is already armed")
        tb = getattr(deployment, "tb", None)
        self.env = env or getattr(deployment, "env", None) \
            or getattr(tb, "env", None)
        self.network = network or getattr(tb, "network", None)
        self.rng = rng or getattr(tb, "rng", None)
        self.server = server or getattr(deployment, "server", None)
        self.service = service or getattr(deployment, "service", None)
        self.gpu = gpu or getattr(deployment, "gpu", None)
        if self.env is None:
            raise FaultError("fault injection needs an environment "
                             "(arm a deployment or pass env=)")
        self._registry = telemetry.registry()
        self._armed = True
        for spec in self.schedule:
            self._compile(spec)
        return self

    def disarm(self):
        """Tear down hooks and release seizures (pending windows no-op)."""
        self._armed = False
        for spec, reqs in list(self._active.items()):
            self._release(reqs)
        self._active.clear()
        for hook in list(self._hooks.values()):
            hook.rules = []
            hook.hold = None
            hook.stall_depth = 0
            hook.maybe_remove()
        self._hooks.clear()

    def _compile(self, spec):
        kind = spec.kind
        if kind in (LINK_LOSS, LINK_CORRUPTION):
            self._require_wire(spec)
            self._window(spec, self._begin_drop_rule, self._end_drop_rule)
        elif kind == RX_STALL:
            self._require_wire(spec)
            self._window(spec, self._begin_stall, self._end_stall)
        elif kind in (SNIC_PAUSE, SNIC_RESTART):
            self._worker_pool()
            self._window(spec, self._begin_snic, self._end_snic)
        elif kind in (ACCEL_CRASH, ACCEL_HANG):
            if self.service is None and self.gpu is None:
                raise FaultError("%s needs a GpuService or a gpu target"
                                 % kind)
            self._window(spec, self._begin_accel, self._end_accel)
        elif kind == RACK_FAILURE:
            if not hasattr(self.network, "fail_rack"):
                raise FaultError("rack_failure needs a multi-rack fabric "
                                 "(MultiRackNetwork) as the network target")
            self._window(spec, self._begin_rack, self._end_rack)
        else:  # pragma: no cover - schedule validation rejects these
            raise FaultError("unknown fault kind %r" % (kind,))

    def _window(self, spec, begin, end):
        env = self.env
        delay = spec.start - env.now
        if delay < 0:
            delay = 0.0

        def _on_start(_event):
            if not self._armed:
                return
            begin(spec)
            env.defer(spec.duration, _on_end)

        def _on_end(_event):
            if not self._armed:
                return
            end(spec)

        env.defer(delay, _on_start)

    # -- targets and counters ----------------------------------------------

    def _require_wire(self, spec):
        if self.network is None:
            raise FaultError("%s needs a network target (arm a deployment "
                             "or pass network=)" % spec.kind)
        return self.network.wire_channel(spec.ip)

    def _worker_pool(self):
        # Lynx server -> SNIC worker cores; host-centric -> host pool.
        server = self.server
        pool = getattr(server, "workers", None) \
            or getattr(server, "pool", None)
        if pool is None:
            raise FaultError("SNIC pause/restart needs a server with a "
                             "worker core pool")
        return pool

    def _counter(self, key):
        counters = self._counters
        if key not in counters:
            counters[key] = self._registry.counter("faults." + key)
        return counters[key]

    def _hook(self, channel):
        if not isinstance(channel, Channel):
            raise FaultError("wire faults target sim.Channel instances, "
                             "got %r" % (channel,))
        hook = self._hooks.get(channel)
        if hook is None:
            hook = _WireHook(self, channel)
            self._hooks[channel] = hook
        return hook

    # -- wire faults -------------------------------------------------------

    def _begin_drop_rule(self, spec):
        if self.rng is None:
            raise FaultError("%s needs an RNG registry (arm a deployment "
                             "or pass rng=)" % spec.kind)
        hook = self._hook(self.network.wire_channel(spec.ip))
        stream = "faults.%s.%s" % (spec.kind, spec.ip)
        rule = (spec.probability, stream, self._counter("injected."
                                                        + spec.kind))
        self._active[spec] = rule
        hook.rules.append(rule)

    def _end_drop_rule(self, spec):
        rule = self._active.pop(spec)
        hook = self._hooks.get(self.network.wire_channel(spec.ip))
        if hook is not None:
            hook.rules.remove(rule)
            hook.maybe_remove()

    def _begin_stall(self, spec):
        hook = self._hook(self.network.wire_channel(spec.ip))
        hook.begin_stall(spec.buffer_limit)
        self._counter("injected." + RX_STALL).inc()

    def _end_stall(self, spec):
        hook = self._hooks.get(self.network.wire_channel(spec.ip))
        if hook is not None:
            hook.end_stall(self._counter("recovered." + RX_STALL))
            hook.maybe_remove()

    # -- SNIC pause / restart ----------------------------------------------

    def _begin_snic(self, spec):
        pool = self._worker_pool()
        # Seize every core until the fault ends: a held claim, not a leg.
        self._active[spec] = [
            pool._res.request(SEIZE_PRIORITY)  # lint: allow-resource-leg
            for _ in range(pool.count)]
        self._counter("injected." + spec.kind).inc()

    def _end_snic(self, spec):
        if spec.kind == SNIC_RESTART:
            # The rebooted server comes up with a cleared NIC RX ring:
            # frames that piled up while it was down are lost.  Flushed
            # before the cores are released, or the workers would serve
            # the stale backlog first.
            flushed = len(self.server.nic.rx.recv_batch())
            if flushed:
                self._counter("dropped." + SNIC_RESTART).inc(flushed)
        self._release(self._active.pop(spec))
        self._counter("recovered." + spec.kind).inc()

    @staticmethod
    def _release(reqs):
        if not isinstance(reqs, list):
            return
        for req in reqs:
            if req.triggered:
                req.release()
            else:
                req.cancel()

    # -- accelerator outages -----------------------------------------------

    def _begin_accel(self, spec):
        service, server = self.service, self.server
        if service is not None and hasattr(server, "set_accelerator_dark"):
            service.interrupt("fault:%s" % spec.kind)
            server.set_accelerator_dark(service.manager, True)
        else:
            # Host-centric baseline: the GPU stops granting SM slots, so
            # every kernel launch queues behind the outage.
            slots = self.gpu.sm_slots
            self._active[spec] = [slots.request(SEIZE_PRIORITY)
                                  for _ in range(int(slots.capacity))]
        self._counter("injected." + spec.kind).inc()

    def _end_accel(self, spec):
        service, server = self.service, self.server
        if service is not None and hasattr(server, "set_accelerator_dark"):
            if spec.mode == "crash":
                lost = service.drain_rings()
                if lost:
                    self._counter("dropped.accel_restart").inc(lost)
            service.restart()
            server.set_accelerator_dark(service.manager, False)
        else:
            self._release(self._active.pop(spec))
        self._counter("recovered.accel_restart").inc()

    # -- rack fault domains --------------------------------------------------

    def _begin_rack(self, spec):
        self.network.fail_rack(spec.rack)
        self._counter("injected." + RACK_FAILURE).inc()

    def _end_rack(self, spec):
        self.network.restore_rack(spec.rack)
        self._counter("recovered." + RACK_FAILURE).inc()

    # -- introspection -----------------------------------------------------

    def counts(self, group):
        """{kind: count} of this injector's ``faults.<group>.*`` counters."""
        prefix = group + "."
        return {key[len(prefix):]: counter.value
                for key, counter in self._counters.items()
                if key.startswith(prefix)}

    def total(self, group):
        """Sum of this injector's ``faults.<group>.*`` counters."""
        return sum(self.counts(group).values())

    def __repr__(self):
        return "<FaultInjector %d windows armed=%r>" % (len(self.schedule),
                                                        self._armed)
