"""CPU core pools and sockets.

Two kinds of work run on cores:

* *calibrated* work — network-stack and runtime costs whose durations
  are already expressed for the owning platform (see
  :mod:`repro.config`); charged as-is.
* *compute* work — application cycles expressed in Xeon-core
  microseconds; scaled by the core's ``speed_factor`` and subject to
  LLC interference when a working set / memory intensity is declared.

Every occupancy of a pool core is one *leg*: request a core, charge the
(LLC-adjusted) duration, release.  Generator code runs a leg with
``yield from pool.run_calibrated(...)``/``run_compute(...)``; callback
state machines use :meth:`CorePool.run_then`, which takes the same
steps in the same order, minus the grant event of an idle core.  A leg
with no LLC effect claims an idle core with one
:meth:`~repro.sim.Resource.try_hold`, which pushes the charge entry
itself; any other leg claims through ``acquire_then`` on a pooled
:class:`_CoreLeg`, whose grant runs the LLC rule.  :func:`_llc_leg` is
the one place the LLC occupancy and penalty rule lives.
"""

from ..errors import ConfigError
from ..sim import Resource
from .. import telemetry


def _llc_leg(llc, duration, memory_intensity, working_set, aggressor=False):
    """Apply the LLC model to one granted leg: ``(duration, token)``.

    A declared working set is occupied *before* the penalty is drawn,
    so the task's own footprint counts toward the pressure it feels;
    the caller releases *token* (if not None) once the charge ends.
    """
    if llc is None:
        return duration, None
    token = llc.occupy(working_set) if working_set > 0 else None
    if aggressor:
        duration *= llc.aggressor_penalty()
    elif memory_intensity > 0:
        duration *= llc.penalty(memory_intensity)
    return duration, token


class _CoreLeg:
    """One :meth:`CorePool.run_then` occupancy, pooled on its pool.

    acquire a core -> (LLC rule) charge -> release LLC token and core ->
    callback: the steps of :meth:`CorePool.run_calibrated`, in its
    order.  A leg with no LLC effect that finds a core idle needs no
    record: ``Resource.try_hold`` carries it.  A core found idle runs
    :meth:`_granted` inside ``acquire_then``; a contended one runs it
    from the grant entry.
    """

    __slots__ = ("pool", "duration", "mi", "ws", "token", "callback",
                 "granted", "charged")

    def __init__(self, pool):
        self.pool = pool
        self.duration = 0.0
        self.mi = 0.0
        self.ws = 0
        self.token = None
        self.callback = None
        # Bound once: a pooled leg hands the same two to every occupancy.
        self.granted = self._granted
        self.charged = self._charged

    def _granted(self, _arg):
        pool = self.pool
        duration, self.token = _llc_leg(pool.llc, self.duration, self.mi,
                                        self.ws)
        pool.env.defer(duration, self.charged)

    def _charged(self, _arg):
        pool = self.pool
        if self.token is not None:
            pool.llc.release(self.token)
            self.token = None
        pool._res.release_slot()
        callback = self.callback
        self.callback = None
        pool._legs.append(self)
        callback()


class CorePool:
    """A set of interchangeable cores behind one run queue.

    Used for worker pools (SNIC worker cores, host server cores) where
    any core may pick up the next task.
    """

    def __init__(self, env, profile, count=None, llc=None, name=None):
        count = profile.cores if count is None else count
        if count < 1:
            raise ConfigError("core pool needs at least one core")
        self.env = env
        self.profile = profile
        self.count = count
        self.llc = llc
        self.name = name or "%s-pool" % profile.name
        self._res = Resource(env, count, name=self.name)
        #: idle run_then leg records (steady state allocates none)
        self._legs = []
        # Bound once: every one-frame run_then claim hands it over.
        self._release = self._released
        #: pool-wide cache behaviour of calibrated (serving-path) work
        self.default_memory_intensity = 0.0
        self.default_working_set = 0
        # Telemetry (DESIGN.md §4.9): the Resource's gauges are already
        # maintained inline on the hot request/grant/release path —
        # registering them costs the data plane nothing.  The run-queue
        # depth gauge is the software stack's queue-depth signal.
        reg = telemetry.registry()
        base = "hw.cpu.%s." % self.name
        reg.register(base + "utilization", self._res.utilization)
        reg.register(base + "runq_depth", self._res.queue_depth)

    @property
    def in_use(self):
        return self._res.in_use

    @property
    def utilization(self):
        return self._res.utilization.mean()

    @property
    def queue_depth(self):
        return self._res.waiting

    def run_calibrated(self, duration, priority=0, memory_intensity=None,
                       working_set=None):
        """Generator: any free core runs platform-calibrated work.

        Lower *priority* values are served first when cores are
        contended (egress work uses a negative priority so responses
        are not starved by an ingress flood).  Memory intensity /
        working set default to the pool-wide values so a whole serving
        path can be made cache-sensitive at construction time.
        """
        if duration < 0:
            raise ConfigError("negative duration")
        if memory_intensity is None:
            memory_intensity = self.default_memory_intensity
        if working_set is None:
            working_set = self.default_working_set
        req = self._res.request(priority=priority)
        try:
            yield req
            duration, token = _llc_leg(self.llc, duration, memory_intensity,
                                       working_set)
            try:
                yield self.env.timeout(duration)
            finally:
                if token is not None:
                    self.llc.release(token)
        finally:
            req.release()

    def run_compute(self, xeon_us, memory_intensity=0.0, working_set=0,
                    priority=0, aggressor=False):
        """Generator: any free core runs compute work (Xeon-us units).

        *aggressor* marks cache-filling work that occupies the LLC but
        only suffers the (mild) aggressor slowdown itself.
        """
        if xeon_us < 0:
            raise ConfigError("negative duration")
        req = self._res.request(priority=priority)
        try:
            yield req
            duration, token = _llc_leg(
                self.llc, xeon_us / self.profile.speed_factor,
                memory_intensity, working_set, aggressor)
            try:
                yield self.env.timeout(duration)
            finally:
                if token is not None:
                    self.llc.release(token)
        finally:
            req.release()

    def run_then(self, duration, callback, priority=0, memory_intensity=None,
                 working_set=None):
        """Callback twin of :meth:`run_calibrated`: ``callback()`` runs
        once the core is released.

        Same arguments, defaults and schedule as the generator, except
        that a core found idle is taken without a grant event: the LLC
        rule and the charge entry follow at once, one event fewer than
        ``yield from pool.run_calibrated(...)``.  For compute work pass
        ``duration / profile.speed_factor`` with explicit zero cache
        arguments (what :meth:`run_compute` does with its defaults).
        """
        if duration < 0:
            raise ConfigError("negative duration")
        mi = (self.default_memory_intensity if memory_intensity is None
              else memory_intensity)
        ws = self.default_working_set if working_set is None else working_set
        llc = self.llc
        # A leg with no LLC effect (nothing to occupy, and a penalty()
        # that would return 1.0 without a draw: no memory intensity, or
        # an LLC whose working sets fit) claims an idle core in one
        # frame; its charge entry is the one _granted would defer.  An
        # intensity above 1 still goes to penalty(), which rejects it.
        if ((llc is None or (ws <= 0 and (
                mi <= 0.0 or (mi <= 1.0 and llc._total <= llc.size_bytes))))
                and self._res.try_hold(duration, self._release, callback)):
            return
        legs = self._legs
        leg = legs.pop() if legs else _CoreLeg(self)
        leg.duration = duration
        leg.mi = mi
        leg.ws = ws
        leg.callback = callback
        self._res.acquire_then(leg.granted, priority)

    def _released(self, callback):
        """End of a :meth:`Resource.try_hold` leg: free the core, then
        continue the caller."""
        self._res.release_slot()
        callback()


class CpuSocket:
    """The cores of one processor plus the shared LLC.

    Work runs on :class:`CorePool` subsets drawn with :meth:`pool`.
    """

    def __init__(self, env, profile, cache_profile, rng, name=None):
        from .cache import LLCModel

        self.env = env
        self.profile = profile
        self.name = name or profile.name
        self.llc = LLCModel(env, profile.llc_bytes, cache_profile, rng)
        #: every pool drawn from this socket (where its cores' work ran)
        self.pools = []

    def pool(self, count=None, name=None):
        """A fresh :class:`CorePool` drawing on this socket's profile.

        Note: pools created here share the socket's LLC (interference
        couples them) but model distinct core subsets, mirroring how the
        paper pins workloads to disjoint cores.
        """
        pool = CorePool(self.env, self.profile, count=count, llc=self.llc,
                        name=name)
        self.pools.append(pool)
        return pool
