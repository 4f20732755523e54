"""Declarative fault schedules.

A :class:`FaultSchedule` is an ordered list of :class:`FaultSpec`
windows, each naming a fault *kind*, an absolute start time, a duration
and the kind-specific target fields.  Schedules are pure data — nothing
happens until a :class:`~repro.faults.injector.FaultInjector` arms one
onto a deployment — so the same schedule can drive Lynx and the
host-centric baseline side by side (experiment E16).

Schedules are composed from the spec classes below (DESIGN.md
§4.10)::

    FaultSchedule([
        LinkLoss("10.0.0.100", start=25000, duration=5000,
                 probability=0.2),
        AcceleratorOutage(start=40000, duration=6000, mode="crash"),
    ])

Validation happens at construction time and raises
:class:`~repro.errors.FaultError`, so a bad schedule fails before any
simulation runs.
"""

from ..errors import FaultError

#: fault kinds (what the injector dispatches on)
LINK_LOSS = "link_loss"
LINK_CORRUPTION = "corruption"
RX_STALL = "rx_stall"
SNIC_PAUSE = "snic_pause"
SNIC_RESTART = "snic_restart"
ACCEL_CRASH = "accel_crash"
ACCEL_HANG = "accel_hang"
RACK_FAILURE = "rack_failure"


def _check_window(kind, start, duration):
    if not isinstance(start, (int, float)) or start < 0:
        raise FaultError("%s: start must be a non-negative time, got %r"
                         % (kind, start))
    if not isinstance(duration, (int, float)) or duration <= 0:
        raise FaultError("%s: duration must be positive, got %r"
                         % (kind, duration))


def _check_probability(kind, probability):
    if not isinstance(probability, (int, float)) or not 0 < probability <= 1:
        raise FaultError("%s: probability must be in (0, 1], got %r"
                         % (kind, probability))


class FaultSpec:
    """One fault window: [start, start + duration) in simulated us."""

    __slots__ = ("start", "duration")

    #: fault kind; concrete subclasses override
    kind = None

    def __init__(self, start, duration):
        _check_window(self.kind, start, duration)
        self.start = float(start)
        self.duration = float(duration)

    @property
    def end(self):
        return self.start + self.duration

    def __repr__(self):
        return "<%s %r [%g, %g)>" % (type(self).__name__, self.kind,
                                     self.start, self.end)


class _WireFault(FaultSpec):
    """Base for faults targeting one endpoint's wire channel."""

    __slots__ = ("ip",)

    def __init__(self, ip, start, duration):
        super().__init__(start, duration)
        if not ip or not isinstance(ip, str):
            raise FaultError("%s: needs a target ip, got %r" % (self.kind, ip))
        self.ip = ip


class LinkLoss(_WireFault):
    """Random packet loss on the wire into *ip* (burst of probability p)."""

    __slots__ = ("probability",)
    kind = LINK_LOSS

    def __init__(self, ip, start, duration, probability):
        super().__init__(ip, start, duration)
        _check_probability(self.kind, probability)
        self.probability = float(probability)


class LinkCorruption(LinkLoss):
    """Random corruption on the wire into *ip*.

    The receiver's FCS check discards a corrupt frame, so mechanically
    this is loss — it is counted separately (``faults.injected.corruption``)
    because the paper's error taxonomy distinguishes the two.
    """

    __slots__ = ()
    kind = LINK_CORRUPTION


class RxRingStall(_WireFault):
    """The NIC RX ring into *ip* stops draining onto the ring.

    Arriving frames queue in the (bounded) stall buffer and land in a
    burst when the window ends; overflow is dropped, like a real ring
    whose head pointer stopped moving.
    """

    __slots__ = ()
    kind = RX_STALL
    #: frames the stall buffer holds before it drops
    buffer_limit = 1024


class SnicPause(FaultSpec):
    """All SNIC worker cores (dispatcher + forwarder) stop scheduling."""

    __slots__ = ()
    kind = SNIC_PAUSE


class SnicRestart(SnicPause):
    """SNIC server restart: paused for the window, NIC RX ring flushed."""

    __slots__ = ()
    kind = SNIC_RESTART


class RackFailure(FaultSpec):
    """A whole rack partitions for the window (multi-rack fabric only).

    Frames to and from the rack are dropped by the fabric while the
    window is open (``net.fabric.dropped_rack_down``); the load
    balancer's health checks and the consistent-hash ring rehome its
    shards to live replicas, and the window's end restores the rack.
    """

    __slots__ = ("rack",)
    kind = RACK_FAILURE

    def __init__(self, rack, start, duration):
        super().__init__(start, duration)
        if not isinstance(rack, int) or rack < 0:
            raise FaultError("rack_failure: rack must be a non-negative "
                             "index, got %r" % (rack,))
        self.rack = rack


class AcceleratorOutage(FaultSpec):
    """The accelerator goes dark for the window, then restarts.

    ``mode="crash"`` kills the kernel and loses ring contents (rings
    are drained on restart); ``mode="hang"`` wedges the kernel but
    preserves memory, so queued entries survive the restart.
    """

    __slots__ = ("mode",)

    def __init__(self, start, duration, mode="crash"):
        if mode not in ("crash", "hang"):
            raise FaultError("accelerator outage mode must be 'crash' or "
                             "'hang', got %r" % (mode,))
        self.mode = mode
        super().__init__(start, duration)

    @property
    def kind(self):
        return ACCEL_CRASH if self.mode == "crash" else ACCEL_HANG


class FaultSchedule:
    """An ordered collection of fault windows (pure data)."""

    __slots__ = ("specs",)

    def __init__(self, specs=()):
        self.specs = []
        for spec in specs:
            self.add(spec)

    def add(self, spec):
        """Append one :class:`FaultSpec`; returns self for chaining."""
        if not isinstance(spec, FaultSpec):
            raise FaultError("fault schedules hold FaultSpec instances, "
                             "got %r" % (spec,))
        self.specs.append(spec)
        return self

    @property
    def horizon(self):
        """Simulated time by which every window has ended."""
        return max((spec.end for spec in self.specs), default=0.0)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def __bool__(self):
        # An empty schedule is a valid (armed-but-inert) schedule;
        # truthiness reflects "has any windows", not validity.
        return bool(self.specs)

    def __repr__(self):
        return "<FaultSchedule %d windows, horizon=%g>" % (len(self.specs),
                                                           self.horizon)
