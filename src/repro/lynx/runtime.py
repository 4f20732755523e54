"""Lynx runtime: host-CPU setup path and accelerator service plumbing.

Faithful to §4.3 "Using mqueues": a host CPU allocates mqueues in
accelerator memory, hands the pointers to the SNIC server and the
accelerator, starts the accelerator's persistent kernel — **and then
goes idle**.  After ``start_gpu_service`` returns, no host core appears
on the data path; tests assert this.
"""

from ..errors import AcceleratorError, ConfigError, SimulationError
from ..net.packet import TCP, UDP, payload_size
from ..sim import Interrupt
from ..sim.events import Event, PENDING, URGENT
from .iolib import AcceleratorIO
from .mqueue import CLIENT, MQueue, MQueueEntry, SERVER
from .rmq import RemoteMQManager


def _uses_stock_handle(app, accel):
    """True when *app* serves through the unmodified ``ServerApp.handle``
    (compute + one GPU charge) on a real :class:`~repro.hw.gpu.GPU` —
    the preconditions for the zero-process :class:`_ThreadblockOp` fast
    path.  Other accelerators (the VCA adapter) bring their own
    ``persistent_kernel`` semantics and keep the generator loop."""
    from ..apps.base import ServerApp  # local: apps imports lynx.iolib
    from ..hw.gpu import GPU

    return isinstance(accel, GPU) and type(app).handle is ServerApp.handle


class AppContext:
    """Everything an accelerator-resident application handler can touch."""

    def __init__(self, env, io, gpu, mq, client_mqs=None, tb_index=0):
        self.env = env
        self.io = io
        self.gpu = gpu
        self.mq = mq
        self.client_mqs = client_mqs or {}
        self.tb_index = tb_index

    def compute(self, duration, dynamic_parallelism=False):
        """Generator: run *duration* (K40m-us) of GPU work.

        With ``dynamic_parallelism`` the work runs as a device-launched
        child kernel (the LeNet server's structure, §6.3); otherwise it
        executes inline in the calling threadblock.
        """
        if self.gpu is None:
            yield self.env.timeout(duration)
        elif dynamic_parallelism:
            yield from self.gpu.child_launch(duration)
        else:
            yield self.env.timeout(self.gpu.scaled(duration))

    def call(self, backend, payload):
        """Generator: RPC to a backend over this context's client mqueue.

        Sends *payload* and blocks for the response entry — the
        Face Verification server's memcached access pattern (§6.4).
        """
        try:
            mq = self.client_mqs[backend]
        except KeyError:
            raise ConfigError("no client mqueue for backend %r (have: %s)"
                              % (backend, ", ".join(sorted(self.client_mqs))))
        yield from self.io.send(mq, payload)
        entry = yield from self.io.recv(mq)
        return entry


class GpuService:
    """Handle onto a started accelerator service (for stats/tests)."""

    def __init__(self, gpu, manager, mqueues, contexts, threadblocks,
                 respawn=None):
        self.gpu = gpu
        self.manager = manager
        self.mqueues = mqueues
        self.contexts = contexts
        self.threadblocks = threadblocks
        #: zero-argument hook rebuilding the threadblocks (fault restart)
        self._respawn = respawn

    @property
    def dropped(self):
        return sum(mq.dropped for mq in self.mqueues)

    @property
    def delivered(self):
        return sum(mq.delivered for mq in self.mqueues)

    # -- fault injection / recovery ------------------------------------------

    def interrupt(self, cause=None):
        """Kill every live threadblock at the current time.

        Also withdraws the dead blocks' parked ring waits: a stale get
        left in the RX ring would silently swallow the first entry
        delivered after a restart, and a stale put would inject a dead
        producer's entry.  Returns the number of threadblocks killed.
        """
        killed = 0
        for tb in self.threadblocks:
            if getattr(tb, "is_alive", False):
                tb.interrupt(cause)
                killed += 1
        for mq in self.mqueues:
            mq.rx_ring.purge_waiters()
            mq.tx_ring.purge_waiters()
        return killed

    def drain_rings(self):
        """Crash recovery: drop both rings' contents on every mqueue.

        Returns the number of entries lost.  The freed RX credits let
        the next deliveries claim slots, which is how ingress resumes.
        """
        return sum(mq.drain() for mq in self.mqueues)

    def restart(self):
        """Respawn the persistent kernel after :meth:`interrupt`.

        Reclaims the dead threadblocks' persistent SM slots first (the
        interrupt path deliberately leaks them, mirroring the dead
        generator), so repeated restarts stay within
        ``max_threadblocks``.  Returns the new threadblock list.
        """
        if self._respawn is None:
            raise AcceleratorError(
                "service on %s cannot restart: no respawn hook"
                % getattr(self.gpu, "name", "<gpu>"))
        for tb in self.threadblocks:
            release = getattr(tb, "release_sm_slot", None)
            if release is not None:
                release()
        self.threadblocks = self._respawn()
        return self.threadblocks


class LynxRuntime:
    """Configuration-time API of Lynx (runs on the host CPU)."""

    def __init__(self, env, server, config):
        self.env = env
        self.server = server
        self.config = config
        self._managers = {}

    # -- accelerator attachment ------------------------------------------------

    def attach_accelerator(self, accel, remote=False):
        """Create the RC QP + Remote MQ Manager for an accelerator.

        The mqueues live in ``accel.memory`` (for a VCA node, the host
        memory of the §5.4 workaround).  *remote* accelerators sit in
        another machine behind their own RDMA NIC (§5.5) — the only
        difference is extra RDMA latency, which is the point of the
        design.
        """
        key = id(accel)
        if key in self._managers:
            return self._managers[key]
        memory = accel.memory
        if not memory.exposed_on_pcie:
            raise ConfigError(
                "accelerator memory must be BAR-exposed for peer DMA (§4.4)")
        needs_barrier = bool(getattr(
            getattr(accel, "profile", None), "needs_write_barrier", False))
        qp = self.server.nic.rdma.connect(memory, remote=remote,
                                          name="qp-%s" % accel.name)
        manager = RemoteMQManager(self.env, accel, qp, self.server.workers,
                                  self.config.lynx,
                                  needs_barrier=needs_barrier)
        self.server.add_manager(manager)
        self._managers[key] = manager
        return manager

    # -- mqueue creation -----------------------------------------------------------

    def create_server_mqueues(self, accel, port, count, proto=UDP,
                              policy=None, remote=False):
        """Allocate *count* server mqueues in accelerator memory and
        bind them to *port* on the SNIC."""
        manager = self.attach_accelerator(accel, remote=remote)
        mqs = []
        for i in range(count):
            mq = MQueue(self.env, manager.qp.target,
                        entries=self.config.lynx.ring_entries, kind=SERVER,
                        proto=proto,
                        name="%s-smq%d-p%d" % (accel.name, i, port))
            manager.register(mq)
            mqs.append(mq)
        self.server.bind(port, mqs, policy=policy)
        return mqs

    def create_client_mqueue(self, accel, destination, proto=TCP,
                             remote=False, name=None):
        """Generator: allocate a client mqueue bound to *destination*
        and (for TCP) establish its static connection."""
        manager = self.attach_accelerator(accel, remote=remote)
        mq = MQueue(self.env, manager.qp.target,
                    entries=self.config.lynx.ring_entries, kind=CLIENT,
                    destination=destination, proto=proto,
                    name=name or "%s-cmq" % accel.name)
        manager.register(mq)
        self.server.register_client_mqueue(mq)
        yield from self.server.connect_client_mqueue(mq)
        return mq

    # -- full GPU service bring-up ----------------------------------------------------

    def start_gpu_service(self, gpu, app, port, n_mqueues=1, proto=UDP,
                          policy=None, backends=None, remote=False):
        """Generator: bring up a complete accelerator-resident service.

        * allocates *n_mqueues* server mqueues on *port*;
        * creates one client mqueue per (threadblock, backend) pair for
          the app's outbound RPCs;
        * starts a persistent GPU kernel with one threadblock per
          server mqueue running ``app.handle``.

        Returns a :class:`GpuService`.  The host CPU's job ends here.
        """
        backends = backends or {}
        mqs = self.create_server_mqueues(gpu, port, n_mqueues, proto=proto,
                                         policy=policy, remote=remote)
        manager = self.attach_accelerator(gpu, remote=remote)
        io = AcceleratorIO(self.env, gpu.poll_latency)
        contexts = []
        for tb, mq in enumerate(mqs):
            client_mqs = {}
            for backend_name, (dest, backend_proto) in backends.items():
                client_mqs[backend_name] = (yield from self.create_client_mqueue(
                    gpu, dest, proto=backend_proto, remote=remote,
                    name="%s-cmq-%s-tb%d" % (gpu.name, backend_name, tb)))
            contexts.append(AppContext(self.env, io, gpu, mq,
                                       client_mqs=client_mqs, tb_index=tb))

        if _uses_stock_handle(app, gpu):
            # Zero-process fast path: one callback state machine per
            # threadblock, mirroring persistent_kernel + _service_loop
            # event for event (see _ThreadblockOp).
            if n_mqueues > gpu.profile.max_threadblocks:
                raise AcceleratorError(
                    "%s supports at most %d resident threadblocks, asked "
                    "for %d" % (gpu.name, gpu.profile.max_threadblocks,
                                n_mqueues))
            def respawn():
                gpu.kernels_launched += 1
                return [_ThreadblockOp(self.env, gpu, io, app, contexts[tb])
                        for tb in range(n_mqueues)]

            procs = respawn()
        else:
            # Apps with a custom handle() coroutine (backend RPCs), and
            # every app on a non-GPU accelerator, keep the interruptible
            # generator loop.
            def body_factory(tb):
                return _service_loop(self.env, io, app, contexts[tb])

            def respawn():
                return gpu.persistent_kernel(
                    n_mqueues, body_factory,
                    name="%s-%s" % (gpu.name, app.name))

            procs = respawn()
        return GpuService(gpu, manager, mqs, contexts, procs, respawn=respawn)


class _ThreadblockOp(Event):
    """One persistent-kernel threadblock as a callback state machine.

    Replaces ``gpu._persistent_block`` + ``_service_loop`` for apps on
    the stock ``ServerApp.handle`` path (compute + one GPU delay per
    request), consuming the exact same schedule slots in the same
    order: spawn kick, SM-slot claim, then per request — RX-ring pop,
    local-poll delay, the kernel delay (for dynamic parallelism: the
    device-launch delay, a child SM-slot claim, the kernel delay,
    slot release), local-write delay, TX-ring put.  Each fixed delay is
    an ``env.defer`` step (:meth:`_sleep`), the slot the generator's
    ``yield env.timeout(d)`` took.

    The op *is* an event, like :class:`Process`: ``interrupt()`` works
    (failure injection), delivering through an URGENT event and then
    scheduling the termination event — the same two schedule slots the
    Process machinery used.  A delay already on the schedule cannot be
    withdrawn, so it fires anyway and :meth:`_woke` drops it once the
    block is dead.  Interrupt mid-kernel releases the child SM slot
    (the generator's ``finally`` did); the persistent slot is
    deliberately leaked, exactly as the dead generator leaked it.
    """

    __slots__ = ("gpu", "io", "app", "ctx", "mq", "entry", "result", "out",
                 "_target", "_target_cb", "_next", "_dp_req", "_dp_slot",
                 "_slot")

    def __init__(self, env, gpu, io, app, ctx):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.gpu = gpu
        self.io = io
        self.app = app
        self.ctx = ctx
        self.mq = ctx.mq
        self.entry = None
        self.result = None
        self.out = None
        self._target = None
        self._target_cb = None
        self._next = None
        self._dp_req = None
        self._dp_slot = None
        self._slot = None
        env._kick(self._begin)

    @property
    def is_alive(self):
        return self._value is PENDING

    def interrupt(self, cause=None):
        """Kill the threadblock at the current time (failure injection)."""
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt dead process %r" % self)
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._target_cb)
            except ValueError:
                pass
        self._target = None
        # Delivery vehicle: same URGENT pre-defused event _InterruptEvent
        # used, same eid consumed now.
        ev = Event(self.env)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev._defused = True
        ev.callbacks.append(self._die)
        self.env.schedule(ev, delay=0, priority=URGENT)

    def _die(self, _event):
        # Mirror the generator unwinding: only the child-kernel slot is
        # protected by a finally; everything else dies with the frame.
        slot = self._dp_slot
        if slot is not None:
            self._dp_slot = None
            slot.release()
        self._dp_req = None
        self.entry = self.result = self.out = None
        # Process.succeed(None): the termination event.
        self.succeed()

    def _wait(self, event, cb):
        self._target = event
        self._target_cb = cb
        event.callbacks.append(cb)

    def _sleep(self, delay, then):
        self._next = then
        self.env.defer(delay, self._woke)

    def _woke(self, _arg):
        # A block interrupted during the delay is dead by now.
        if self._value is PENDING:
            self._next()

    # -- states -------------------------------------------------------------

    def _begin(self, _event):
        # _persistent_block: claim the threadblock's SM slot forever.
        req = self.gpu.sm_slots.request()
        self._slot = req
        self._wait(req, self._slot_granted)

    def _slot_granted(self, _event):
        self._arm()

    def release_sm_slot(self):
        """Return the persistent SM slot after death (restart path only).

        ``interrupt`` leaks the slot exactly as the dead generator did —
        this explicit reclaim is what an accelerator *restart* calls so
        the respawned kernel boots within ``max_threadblocks``.
        """
        slot = self._slot
        if slot is None or self._value is PENDING:
            return
        self._slot = None
        if slot.triggered:
            slot.release()
        else:
            slot.cancel()

    def _arm(self):
        self._wait(self.mq.pop_rx(), self._on_entry)

    def _on_entry(self, get):
        self.entry = get._value
        self._sleep(self.io.local_latency, self._polled)

    def _polled(self):
        io = self.io
        io.received += 1
        entry = self.entry
        req_msg = entry.request_msg
        if req_msg is not None:
            req_msg.meta["t_accel_start"] = self.env.now
        app = self.app
        self.result = app.compute(entry.payload)
        gpu = self.gpu
        if app.use_dynamic_parallelism:
            self._sleep(gpu.profile.device_launch_latency, self._dp_launched)
        else:
            self._sleep(gpu.scaled(app.gpu_duration), self._computed)

    def _dp_launched(self):
        req = self.gpu.sm_slots.request()
        self._dp_req = req
        self._wait(req, self._dp_granted)

    def _dp_granted(self, _event):
        gpu = self.gpu
        gpu.kernels_launched += 1
        self._dp_slot = self._dp_req
        self._dp_req = None
        self._sleep(gpu.scaled(self.app.gpu_duration), self._dp_computed)

    def _dp_computed(self):
        slot = self._dp_slot
        self._dp_slot = None
        slot.release()
        self._computed()

    def _computed(self):
        result = self.result
        entry = self.entry
        self.entry = self.result = None
        if result is None:
            self._arm()
            return
        req_msg = entry.request_msg
        out = MQueueEntry(payload=result, size=payload_size(result),
                          error=0, request_msg=req_msg)
        if req_msg is not None:
            req_msg.meta["t_accel_done"] = self.env.now
        self.out = out
        self._sleep(self.io.local_latency, self._written)

    def _written(self):
        out = self.out
        self.out = None
        self._wait(self.mq.push_tx(out), self._pushed)

    def _pushed(self, _event):
        self.mq.ring_doorbell()
        self.io.sent += 1
        self._arm()


def _service_loop(env, io, app, ctx):
    """One threadblock's request loop (runs until killed).

    Serves apps with a custom ``handle()`` coroutine, and every app on
    an accelerator that is not a :class:`~repro.hw.gpu.GPU` (the VCA
    adapter); stock-handle apps on a GPU run as :class:`_ThreadblockOp`
    instead.  The loop stays a real :class:`Process` so failure
    injection can ``interrupt()`` it.
    """
    mq = ctx.mq
    try:
        while True:
            entry = yield from io.recv(mq)
            result = yield from app.handle(ctx, entry)
            if result is not None:
                yield from io.send(mq, result, reply_to=entry)
    except Interrupt:
        # failure injection: the threadblock dies quietly; upstream
        # stages observe it through backend timeouts (§5.1 metadata)
        return
