"""The generic network server Lynx runs on the SNIC (§4.2).

Application-agnostic: it terminates UDP/TCP with the platform's stack,
dispatches requests into mqueues via the Remote MQ Managers, forwards
responses back to clients, and relays client-mqueue traffic to backend
services.  No accelerator-specific code runs here — that is the whole
point of the design.

All CPU work is charged on the SNIC's worker core pool, so core
contention (7 slow ARM cores vs 1-6 Xeon cores) falls out naturally.

The per-message serving path (rx -> stack -> dispatch -> RDMA post, and
doorbell -> forward -> stack -> wire on egress) used to run as generator
coroutines; at saturation the generator frames and ``Process``/``Task``
resumptions dominated simulator wall-clock.  Both paths now run as
callback state machines (:class:`_RxOp`, :class:`_TxOp`) that mirror
the retired generators *event for event* — every resource request,
charge and kick consumes the same schedule slot in the same order — so
simulated results are bit-identical under a fixed seed while the hot
path allocates no frames and spawns no processes per message.
"""

from ..errors import ConfigError, NetworkError
from ..net.packet import Address, Message, TCP, TCP_HEADER, UDP_HEADER
from ..net.stack import NetworkStack, TcpConnection
from ..sim import NullTracer, RateMeter, batchexec
from .. import telemetry
from .dispatch import ClientSteering, LeastLoaded, RoundRobin
from .mqueue import (
    CLIENT,
    ERR_CONNECTION,
    ERR_TIMEOUT,
    ERR_UNAVAILABLE,
    MQueueEntry,
    SERVER,
)


class _PortBinding:
    """A listening port: its dispatch policy, mqueues and tenant stats."""

    __slots__ = ("port", "policy", "mqueues", "requests", "responses")

    def __init__(self, env, port, policy):
        self.port = port
        self.policy = policy
        self.mqueues = []
        #: per-tenant accounting (§4.5 multi-tenancy)
        self.requests = RateMeter(env, name="port%d-reqs" % port)
        self.responses = RateMeter(env, name="port%d-resps" % port)


# Per-stage coalescing shared across the data planes (DESIGN.md §4.14).
_try_stage = batchexec.try_stage


class _RxOp:
    """One worker core's ingress loop as a callback state machine.

    Mirrors the retired ``_rx_loop``/``_handle_rx`` generator pair step
    for step: NIC recv -> stack rx cost -> dispatch cost -> RDMA post
    cost -> delivery, with each pool occupancy expressed as the same
    request/charge/release event triple ``CorePool.run_calibrated`` /
    ``run_compute`` scheduled.  One op per worker core lives for the
    whole simulation, so steady-state ingress allocates nothing.
    """

    __slots__ = ("server", "env", "pool", "msg", "mq", "manager",
                 "binding", "request", "duration", "mi", "ws", "token",
                 "_t1", "_t2")

    def __init__(self, server):
        self.server = server
        self.env = server.env
        self.pool = server.workers
        self.msg = None
        self.mq = None
        self.manager = None
        self.binding = None
        self.request = None
        self.duration = 0.0
        self.mi = 0.0
        self.ws = 0
        self.token = None
        #: frame execution: stage-boundary timestamps of a turbo span
        self._t1 = 0.0
        self._t2 = 0.0

    def start(self):
        # URGENT kick at the current time: the exact schedule slot the
        # rx-loop Process's init kick used to occupy.
        self.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        """Wait for the next RX-ring message (the loop's ``nic.recv()``).

        Every call site reaches here as the tail of its callback, which
        is what makes the frame-execution admission guard sound (see
        :mod:`repro.sim.batchexec`): after :meth:`_try_turbo` checks the
        schedule, nothing else runs at the current instant.
        """
        if self.env.frame_exec and self._try_turbo():
            return
        get = self.server.nic.rx.get()
        get.callbacks.append(self._on_msg)

    # -- frame execution (DESIGN.md §4.14) ---------------------------------

    def _try_turbo(self):
        """Coalesce the whole rx -> dispatch -> post span into one event.

        The scalar chain burns seven schedule slots per message (ring
        pop, three grants, three charges); when the span is provably
        unobservable this runs it as a single completion at the exact
        final timestamp, replaying every intermediate effect with the
        same arithmetic.  Any precondition failure falls back to the
        unchanged scalar path — which is also the determinism oracle.
        """
        env = self.env
        server = self.server
        if server.tracer.enabled or env.tracer.enabled:
            return False
        rx = server.nic.rx
        items = rx._items
        if not items or not batchexec.ring_plain(rx):
            return False
        msg = items[0]
        kind = msg.kind
        if kind == "tcp-syn" or kind == "tcp-synack":
            return False
        port = msg.dst.port
        if server._client_mq_by_port.get(port) is not None:
            return False
        binding = server._ports.get(port)
        if binding is None or not binding.mqueues:
            return False
        pool = self.pool
        res = pool._res
        if not batchexec.pool_ready(res):
            return False
        if not batchexec.calibration_plain(pool):
            return False
        # Preview the dispatch decision without committing policy state;
        # only the known-pure policies (plus round-robin's counter,
        # advanced below once the span commits) are previewable.
        policy = binding.policy
        ptype = type(policy)
        mqueues = binding.mqueues
        if ptype is RoundRobin:
            mq = mqueues[policy._next % len(mqueues)]
        elif ptype is LeastLoaded or ptype is ClientSteering:
            mq = policy.select(mqueues, msg)
        else:
            return False
        manager = server._manager_of(mq)
        if server._dark_managers and manager in server._dark_managers:
            return False
        # Stage timestamps: the exact sequential additions the scalar
        # charges perform (batchexec.span_times, unrolled).
        t1 = env.now + server.stack.rx_cost(msg)
        t2 = t1 + server.profile.dispatch_cost / pool.profile.speed_factor
        t3 = t2 + manager.engine.profile.post_cost
        if not batchexec.clear_span(env, t3):
            return False
        # -- commit ----------------------------------------------------
        items.popleft()
        server.nic.rx_rate.count += 1       # inlined nic.recv() rate tick
        if ptype is RoundRobin:
            policy._next += 1
        batchexec.seize(res)
        self.msg = msg
        self.mq = mq
        self.manager = manager
        self.binding = binding
        self._t1 = t1
        self._t2 = t2
        # Scalar slots for this span: ring pop, three grants, two
        # stage charges (6 eids) — then defer_at issues the seventh, so
        # the completion fires with the final charge's exact sequence
        # number and everything scheduled afterwards is unperturbed.
        batchexec.burn(env, 6)
        env.defer_at(t3, self._turbo_done)
        return True

    def _turbo_done(self, _event):
        """Span completion: replay the scalar chain's effects at their
        recorded timestamps, then deliver and re-arm."""
        server = self.server
        msg = self.msg
        res = self.pool._res
        gauge = res.utilization
        # The scalar chain's zero-width release/re-grant pairs at the
        # two stage boundaries, then the real release at now (== t3).
        batchexec.touch_gauge(gauge, self._t1)
        batchexec.touch_gauge(gauge, self._t2)
        batchexec.unseize(res)
        if msg.proto == TCP and msg.conn is not None:
            msg.conn.deliver(msg)
        msg.meta["t_rx_done"] = self._t1
        server.requests.count += 1        # inlined RateMeter.tick()
        self.binding.requests.count += 1
        msg.meta["t_dispatched"] = self._t2
        manager, mq = self.manager, self.mq
        self.manager = self.mq = self.msg = self.binding = None
        manager.deliver(mq, msg)
        self._arm()

    def _on_msg(self, get):
        server = self.server
        server.nic.rx_rate.count += 1       # inlined nic.recv() rate tick
        msg = get._value
        if msg.kind == "tcp-synack":
            waiter = server._synack_waiters.pop(msg.conn.conn_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(msg)
            self._arm()
            return
        if server.stack.handle_control(msg, server.nic):
            self._arm()
            return
        # stack.process_rx: calibrated rx cost on the worker pool.
        self.msg = msg
        duration = server.stack.rx_cost(msg)
        if self.env.frame_exec and _try_stage(self.env, self.pool._res,
                                              duration, self._rx_stage_done,
                                              pool=self.pool):
            return
        self._acquire_calibrated(duration, self._rx_granted)

    # -- pool occupancy (twins of CorePool.run_calibrated/_timed) ----------

    def _acquire_calibrated(self, duration, granted):
        pool = self.pool
        self.duration = duration
        self.mi = pool.default_memory_intensity
        self.ws = pool.default_working_set
        req = pool._res.request(0)
        self.request = req
        req.callbacks.append(granted)

    def _charge_calibrated(self, charged):
        llc = self.pool.llc
        duration = self.duration
        if llc is None or self.ws <= 0:
            if llc is not None and self.mi > 0:
                duration *= llc.penalty(self.mi)
        else:
            # _timed leg: hold LLC occupancy for the span of the charge
            # (occupy before computing the penalty, like the generator).
            self.token = llc.occupy(self.ws)
            if self.mi > 0:
                duration *= llc.penalty(self.mi)
        self.env.charge(duration).callbacks.append(charged)

    def _release_calibrated(self):
        token = self.token
        if token is not None:
            self.pool.llc.release(token)
            self.token = None
        self.request.release()
        self.request = None

    # -- phases ------------------------------------------------------------

    def _rx_granted(self, _event):
        self._charge_calibrated(self._rx_charged)

    def _rx_charged(self, _event):
        self._release_calibrated()
        self._after_rx()

    def _rx_stage_done(self, _event):
        batchexec.unseize(self.pool._res)
        self._after_rx()

    def _after_rx(self):
        server = self.server
        msg = self.msg
        if msg.proto == TCP and msg.conn is not None:
            msg.conn.deliver(msg)
        msg.meta["t_rx_done"] = self.env.now
        if server.tracer.enabled:
            server.tracer.emit(server.name, "rx", msg.msg_id)
        # Backend response for a client mqueue?
        client_mq = server._client_mq_by_port.get(msg.dst.port)
        if client_mq is not None:
            server._pending_backend.pop(msg.meta.get("in_reply_to"), None)
            self._dispatch(client_mq)
            return
        binding = server._ports.get(msg.dst.port)
        if binding is None or not binding.mqueues:
            server.dropped += 1
            self.msg = None
            self._arm()
            return
        server.requests.count += 1        # inlined RateMeter.tick()
        binding.requests.count += 1
        self.binding = binding
        # Lynx's own dispatcher code scales with the platform's core
        # speed (run_compute with no cache args: a plain charge).
        pool = self.pool
        duration = server.profile.dispatch_cost / pool.profile.speed_factor
        if self.env.frame_exec and _try_stage(self.env, pool._res, duration,
                                              self._cmp_stage_done):
            return
        self.duration = duration
        req = pool._res.request(0)
        self.request = req
        req.callbacks.append(self._cmp_granted)

    def _cmp_granted(self, _event):
        self.env.charge(self.duration).callbacks.append(self._cmp_charged)

    def _cmp_charged(self, _event):
        self.request.release()
        self.request = None
        self._after_cmp()

    def _cmp_stage_done(self, _event):
        batchexec.unseize(self.pool._res)
        self._after_cmp()

    def _after_cmp(self):
        server = self.server
        binding = self.binding
        self.binding = None
        msg = self.msg
        mq = binding.policy.select(binding.mqueues, msg)
        msg.meta["t_dispatched"] = self.env.now
        if server.tracer.enabled:
            server.tracer.emit(server.name, "dispatch", msg.msg_id, mq.name)
        self._dispatch(mq)

    def _dispatch(self, mq):
        """The retired ``_dispatch_to``: post cost, then RDMA delivery."""
        server = self.server
        manager = server._manager_of(mq)
        if server._dark_managers and manager in server._dark_managers:
            self._shed(mq)
            return
        self.mq = mq
        self.manager = manager
        # CPU cost of posting the one-sided RDMA write (§5.1: <1us).
        duration = manager.engine.profile.post_cost
        if self.env.frame_exec and _try_stage(self.env, self.pool._res,
                                              duration, self._post_stage_done,
                                              pool=self.pool):
            return
        self._acquire_calibrated(duration, self._post_granted)

    def _shed(self, mq):
        """Graceful degradation: the accelerator behind *mq* is dark.

        Server-mqueue requests get an immediate §5.1-style error
        response through the normal egress path (the client sees
        ``ERR_UNAVAILABLE`` and can retry) instead of parking on a ring
        nobody drains; backend responses for a dark accelerator's
        client mqueues are dropped.
        """
        server = self.server
        msg = self.msg
        self.msg = None
        if mq.kind == SERVER and msg is not None:
            server.shed += 1
            server._on_accelerator_tx(mq, MQueueEntry(
                payload=b"", size=0, error=ERR_UNAVAILABLE,
                request_msg=msg))
        else:
            server.dropped += 1
        self._arm()

    def _post_granted(self, _event):
        self._charge_calibrated(self._post_charged)

    def _post_charged(self, _event):
        self._release_calibrated()
        self._after_post()

    def _post_stage_done(self, _event):
        batchexec.unseize(self.pool._res)
        self._after_post()

    def _after_post(self):
        # Ring-full drops are counted once, by the mqueue itself;
        # ``server.dropped`` tracks only undeliverable traffic.
        manager, mq, msg = self.manager, self.mq, self.msg
        self.manager = self.mq = self.msg = None
        manager.deliver(mq, msg)
        self._arm()


class _TxOp:
    """One in-flight egress (accelerator -> client) forward.

    Mirrors the retired ``_handle_tx`` detached task step for step:
    forward cost at egress priority, response build, stack tx cost,
    then wire serialization on the NIC TX resource.  Op records are
    pooled on the server (``_tx_op_pool``).
    """

    __slots__ = ("server", "env", "pool", "mq", "entry", "response",
                 "request", "duration", "mi", "ws", "token", "_t1", "_t3")

    def __init__(self, server):
        self.server = server
        self.env = server.env
        self.pool = server.workers
        self.mq = None
        self.entry = None
        self.response = None
        self.request = None
        self.duration = 0.0
        self.mi = 0.0
        self.ws = 0
        self.token = None
        #: frame execution: stage-boundary timestamps of a turbo span
        self._t1 = 0.0
        self._t3 = 0.0

    def start(self, mq, entry):
        self.mq = mq
        self.entry = entry
        # URGENT kick at now: the slot the detached task's kick consumed.
        self.env._kick(self._begin)

    def _begin(self, _event):
        # Frame-execution admission happens here, in the kick's own
        # callback, NOT in start(): a poller sweep can start several ops
        # back to back, and each later kick must already be visible to
        # the earlier op's clear-span guard.
        if self.env.frame_exec and self._try_turbo():
            return
        # Egress runs at higher core priority than ingress: the real
        # forwarder round-robins and is never starved by a request flood.
        pool = self.pool
        duration = (self.server.profile.forward_cost
                    / pool.profile.speed_factor)
        if self.env.frame_exec and _try_stage(self.env, pool._res, duration,
                                              self._fwd_stage_done):
            return
        self.duration = duration
        req = pool._res.request(-1)
        self.request = req
        req.callbacks.append(self._fwd_granted)

    def _begin_swept(self, _event):
        """Scalar ``_begin`` body for sweep-coalesced starts — no turbo.

        All ops of a sweep begin inside one kick callback, so when an
        earlier op probed ``clear_span`` the later ops' grant events
        would not be in the queue yet and the guard would falsely
        admit.  Turbo resumes downstream, where every stage boundary is
        a real queue event again.
        """
        pool = self.pool
        self.duration = (self.server.profile.forward_cost
                         / pool.profile.speed_factor)
        req = pool._res.request(-1)
        self.request = req
        req.callbacks.append(self._fwd_granted)

    # -- frame execution (DESIGN.md §4.14) ---------------------------------

    def _try_turbo(self):
        """Coalesce forward -> stack tx -> wire into two scheduled events.

        The scalar chain costs six slots after the kick; the turbo step
        runs one completion at the stack-tx timestamp (where the issue
        slot changes hands) and one at wire-out.  Only the plain
        server-mqueue response path qualifies — client-mqueue egress
        (fresh backend requests, watchdogs) stays scalar.
        """
        env = self.env
        server = self.server
        if server.tracer.enabled or env.tracer.enabled:
            return False
        mq, entry = self.mq, self.entry
        if mq.kind != SERVER:
            return False
        request = entry.request_msg
        if request is None:
            return False
        size = 0 if entry.error else entry.size
        if size is None:
            return False
        pool = self.pool
        res = pool._res
        if not batchexec.pool_ready(res):
            return False
        if not batchexec.calibration_plain(pool):
            return False
        issue = server.nic.tx.issue
        if issue is None or not batchexec.pool_ready(issue):
            return False
        proto = request.proto
        header = TCP_HEADER if proto == TCP else UDP_HEADER
        t1 = env.now + server.profile.forward_cost / pool.profile.speed_factor
        t2 = t1 + server.stack.tx_cost_for(proto, size)
        t3 = t2 + server.nic.tx.occupancy(size + header)
        if not batchexec.clear_span(env, t3):
            return False
        # -- commit ----------------------------------------------------
        batchexec.seize(res)
        self._t1 = t1
        self._t3 = t3
        # Scalar slots: forward grant + charge, then the tx-leg grant
        # (3 eids); defer_at issues the tx charge's exact slot.
        batchexec.burn(env, 3)
        env.defer_at(t2, self._turbo_fwd_done)
        return True

    def _turbo_fwd_done(self, _event):
        """now == t2: worker-pool span over; replay t1's bookkeeping,
        build the response at its scalar values, claim the wire."""
        server = self.server
        env = self.env
        res = self.pool._res
        batchexec.touch_gauge(res.utilization, self._t1)
        batchexec.unseize(res)
        entry = self.entry
        request = entry.request_msg
        t1 = self._t1
        if entry.error:
            response = request.reply(b"", created_at=t1, size=0,
                                     kind="error")
            response.meta["error"] = entry.error
        else:
            response = request.reply(entry.payload, created_at=t1,
                                     size=entry.size)
        self.response = response
        if server.collect_breakdowns:
            stamps = dict(request.meta)
            stamps["t_tx_ready"] = t1
            response.meta["breakdown"] = {
                k: v for k, v in stamps.items() if k.startswith("t_")}
        if response.proto == TCP and response.conn is not None:
            response.meta["tcp_seq"] = response.conn.next_seq(response.src)
        server.responses.count += 1       # inlined RateMeter.tick()
        binding = server._ports.get(self.mq.bound_port)
        if binding is not None:
            binding.responses.count += 1
        batchexec.seize(server.nic.tx.issue)
        batchexec.burn(env, 1)            # the scalar issue-grant slot
        env.defer_at(self._t3, self._turbo_wire_done)

    def _turbo_wire_done(self, _event):
        """now == t3: wire serialization done — deliver and recycle."""
        nic = self.server.nic
        batchexec.unseize(nic.tx.issue)
        response = self.response
        nic.tx.sent += 1                  # inlined Channel.transfer stats
        nic.tx.bytes_moved += response.wire_size
        nic.tx_rate.count += 1            # inlined RateMeter.tick()
        nic.network.deliver(response)
        self._finish()

    def _fwd_granted(self, _event):
        self.env.charge(self.duration).callbacks.append(self._fwd_charged)

    def _fwd_charged(self, _event):
        self.request.release()
        self.request = None
        self._after_fwd()

    def _fwd_stage_done(self, _event):
        batchexec.unseize(self.pool._res)
        self._after_fwd()

    def _after_fwd(self):
        server = self.server
        mq, entry = self.mq, self.entry
        response = server._build_response(mq, entry)
        if response is None:
            self._finish()
            return
        self.response = response
        if server.collect_breakdowns and entry.request_msg is not None:
            stamps = dict(entry.request_msg.meta)
            stamps["t_tx_ready"] = self.env.now
            response.meta["breakdown"] = {
                k: v for k, v in stamps.items() if k.startswith("t_")}
        if response.proto == TCP and response.conn is not None:
            response.meta["tcp_seq"] = response.conn.next_seq(response.src)
        # run_calibrated(stack.tx_cost, priority=-1) on the worker pool.
        pool = self.pool
        duration = server.stack.tx_cost(response)
        if self.env.frame_exec and _try_stage(self.env, pool._res, duration,
                                              self._tx_stage_done, pool=pool):
            return
        self.duration = duration
        self.mi = pool.default_memory_intensity
        self.ws = pool.default_working_set
        req = pool._res.request(-1)
        self.request = req
        req.callbacks.append(self._tx_granted)

    def _tx_granted(self, _event):
        llc = self.pool.llc
        duration = self.duration
        if llc is None or self.ws <= 0:
            if llc is not None and self.mi > 0:
                duration *= llc.penalty(self.mi)
        else:
            self.token = llc.occupy(self.ws)
            if self.mi > 0:
                duration *= llc.penalty(self.mi)
        self.env.charge(duration).callbacks.append(self._tx_charged)

    def _tx_charged(self, _event):
        token = self.token
        if token is not None:
            self.pool.llc.release(token)
            self.token = None
        self.request.release()
        self.request = None
        self._after_txleg()

    def _tx_stage_done(self, _event):
        batchexec.unseize(self.pool._res)
        self._after_txleg()

    def _after_txleg(self):
        server = self.server
        server.responses.count += 1       # inlined RateMeter.tick()
        mq = self.mq
        if mq.kind == SERVER:
            binding = server._ports.get(mq.bound_port)
        else:
            binding = None
        if binding is not None:
            binding.responses.count += 1
        if server.tracer.enabled:
            server.tracer.emit(server.name, "tx", self.response.msg_id)
        # nic.send(response) through the TX channel: claim the port's
        # issue slot, hold it for the wire occupancy, then deliver.
        issue = server.nic.tx.issue
        duration = server.nic.tx.occupancy(self.response.wire_size)
        if self.env.frame_exec and _try_stage(self.env, issue, duration,
                                              self._wire_stage_done):
            return
        req = issue.request()
        self.request = req
        req.callbacks.append(self._wire_granted)

    def _wire_granted(self, _event):
        tx = self.server.nic.tx
        charge = self.env.charge(tx.occupancy(self.response.wire_size))
        charge.callbacks.append(self._wire_charged)

    def _wire_charged(self, _event):
        self.request.release()
        self.request = None
        self._after_wire()

    def _wire_stage_done(self, _event):
        batchexec.unseize(self.server.nic.tx.issue)
        self._after_wire()

    def _after_wire(self):
        nic = self.server.nic
        response = self.response
        nic.tx.sent += 1                  # inlined Channel.transfer stats
        nic.tx.bytes_moved += response.wire_size
        nic.tx_rate.count += 1            # inlined RateMeter.tick()
        nic.network.deliver(response)
        self._finish()

    def _finish(self):
        self.mq = self.entry = self.response = None
        pool = self.server._tx_op_pool
        if len(pool) < LynxServer.TX_OP_POOL_CAP:
            pool.append(self)


class LynxServer:
    """The SNIC-resident network server + dispatcher + forwarder."""

    #: max pooled egress-op records (bounds steady-state in-flight TX)
    TX_OP_POOL_CAP = 1024

    def __init__(self, env, nic, workers, stack_profile, lynx_profile,
                 name=None, tracer=None):
        self.env = env
        self.nic = nic
        self.workers = workers
        self.profile = lynx_profile
        self.tracer = tracer or NullTracer()
        #: opt-in per-response latency-stamp collection (see
        #: experiments/breakdown.py); off by default — it copies the
        #: request's meta dict into every response.
        self.collect_breakdowns = False
        self.name = name or "lynx@%s" % nic.ip
        self.stack = NetworkStack(env, workers, stack_profile,
                                  name="%s-stack" % self.name)
        self._ports = {}
        self._managers = []
        self._manager_by_mq = {}
        self._client_mq_by_port = {}
        self._next_client_port = 9000
        self._synack_waiters = {}
        self._pending_backend = {}
        #: managers whose accelerator is dark (fault injection); their
        #: traffic is shed with error responses instead of parked
        self._dark_managers = set()
        self.requests = RateMeter(env, name="%s-reqs" % self.name)
        self.responses = RateMeter(env, name="%s-resps" % self.name)
        self.dropped = 0
        self.shed = 0
        # Telemetry (DESIGN.md §4.9): the live meters double as the
        # registry instruments; drops are pulled at snapshot time.
        reg = telemetry.registry()
        base = "lynx.server.%s." % self.name
        reg.register(base + "rx.requests", self.requests)
        reg.register(base + "tx.responses", self.responses)
        reg.pull(base + "rx.drops", lambda: self.dropped)
        reg.pull(base + "tx.shed_errors", lambda: self.shed)
        self._tx_op_pool = []
        # One ingress loop per worker core: admission is bounded by core
        # availability, and overload is shed at the NIC RX ring instead
        # of building an unbounded software backlog.
        for _ in range(workers.count):
            _RxOp(self).start()

    @property
    def ip(self):
        return self.nic.ip

    # -- configuration ----------------------------------------------------------

    def add_manager(self, manager):
        """Attach a Remote MQ Manager (one per accelerator)."""
        manager.on_tx(self._on_accelerator_tx)
        if hasattr(manager, "on_tx_many"):
            manager.on_tx_many(self._on_accelerator_tx_many)
        self._managers.append(manager)
        return manager

    def bind(self, port, mqueues, policy=None):
        """Listen on *port* and dispatch its requests to *mqueues*."""
        binding = self._ports.get(port)
        if binding is None:
            binding = _PortBinding(self.env, port, policy or RoundRobin())
            self._ports[port] = binding
            self.stack.listen(port)
            # Per-tenant accounting (§4.5) in the registry.
            reg = telemetry.registry()
            base = "lynx.server.%s.port.%d." % (self.name, port)
            reg.register(base + "rx.requests", binding.requests)
            reg.register(base + "tx.responses", binding.responses)
        elif policy is not None:
            binding.policy = policy
        for mq in mqueues:
            if mq.kind != SERVER:
                raise ConfigError("only server mqueues can be bound to a port")
            if mq.bound_port is not None and mq.bound_port != port:
                # Multi-tenant state protection (§4.5): an mqueue belongs
                # to exactly one service.
                raise ConfigError(
                    "mqueue %s is already bound to port %d" % (mq.name,
                                                               mq.bound_port))
            mq.bound_port = port
            binding.mqueues.append(mq)
        return binding

    def register_client_mqueue(self, mq):
        """Give a client mqueue its SNIC-side source port."""
        if mq.kind != CLIENT:
            raise ConfigError("register_client_mqueue needs a client mqueue")
        self._next_client_port += 1
        mq.src_port = self._next_client_port
        self._client_mq_by_port[mq.src_port] = mq
        return mq

    def connect_client_mqueue(self, mq):
        """Generator: establish the TCP connection of a client mqueue.

        Performed once at initialization (§4.3: static connections).
        """
        if mq.src_port is None:
            self.register_client_mqueue(mq)
        if mq.proto != TCP:
            return mq
        src = Address(self.ip, mq.src_port)
        conn = TcpConnection(client=src, server=mq.destination)
        syn = Message(src=src, dst=mq.destination, payload=b"", proto=TCP,
                      created_at=self.env.now, conn=conn, kind="tcp-syn")
        syn.meta["conn"] = conn
        waiter = self.env.event()
        self._synack_waiters[conn.conn_id] = waiter
        yield from self.nic.send(syn)
        yield waiter
        if not conn.established:
            raise NetworkError("client mqueue %s failed to connect" % mq.name)
        mq.conn = conn
        return mq

    def port_stats(self, port):
        """Per-tenant request/response meters of one listening port."""
        binding = self._ports.get(port)
        if binding is None:
            raise ConfigError("no binding on port %d" % port)
        return binding.requests, binding.responses

    def set_accelerator_dark(self, manager, dark=True):
        """Mark *manager*'s accelerator dead (or recovered).

        While dark, requests dispatched to its mqueues are shed with
        ``ERR_UNAVAILABLE`` error responses (see :meth:`_RxOp._shed`).
        """
        if dark:
            self._dark_managers.add(manager)
        else:
            self._dark_managers.discard(manager)

    def _manager_of(self, mq):
        # Cached: this runs per dispatched message, and a linear scan of
        # managers × mqueues dominated dispatch at high queue counts.
        manager = self._manager_by_mq.get(mq)
        if manager is None:
            for candidate in self._managers:
                if mq in candidate._mqueue_set:
                    manager = candidate
                    break
            else:
                raise ConfigError(
                    "mqueue %s has no manager on %s" % (mq.name, self.name))
            self._manager_by_mq[mq] = manager
        return manager

    # -- egress --------------------------------------------------------------------

    def _on_accelerator_tx(self, mq, entry):
        pool = self._tx_op_pool
        op = pool.pop() if pool else _TxOp(self)
        op.start(mq, entry)

    def _on_accelerator_tx_many(self, pairs):
        """Frame twin of the per-entry sink for one poller sweep.

        The scalar path posts one URGENT kick per entry: k events whose
        callbacks each run :meth:`_TxOp._begin`.  Since same-time URGENT
        kicks all fire before any NORMAL grant they create, the k
        ``_begin`` bodies run back to back either way — so one kick
        runs them all in order, the k-1 phantom kick ids are burned,
        and every grant event the bodies create keeps its scalar id.
        """
        pool = self._tx_op_pool
        ops = []
        for mq, entry in pairs:
            op = pool.pop() if pool else _TxOp(self)
            op.mq = mq
            op.entry = entry
            ops.append(op)

        def run(_event):
            for op in ops:
                op._begin_swept(_event)

        env = self.env
        env._kick(run)
        batchexec.burn(env, len(ops) - 1)

    def _build_response(self, mq, entry):
        if mq.kind == SERVER:
            # Respond to whichever client sent the request (§4.3).
            request = entry.request_msg
            if request is None:
                raise NetworkError(
                    "server mqueue %s produced an entry with no originating "
                    "request" % mq.name)
            if entry.error:
                # §5.1 error status to the client: an error-kind reply
                # resolves the client's waiter without counting as a
                # served response (goodput and latency stay honest).
                response = request.reply(b"", created_at=self.env.now,
                                         size=0, kind="error")
                response.meta["error"] = entry.error
                return response
            return request.reply(entry.payload, created_at=self.env.now,
                                 size=entry.size)
        # Client mqueue: a fresh request to the static destination.
        if mq.proto == TCP and (mq.conn is None or not mq.conn.established):
            # §5.1: connection errors surface through the metadata's
            # error field instead of hanging the accelerator.
            self._deliver_error(mq, ERR_CONNECTION)
            return None
        msg = Message(src=Address(self.ip, mq.src_port), dst=mq.destination,
                      payload=entry.payload, proto=mq.proto,
                      created_at=self.env.now, size=entry.size,
                      conn=mq.conn, kind="request")
        if self.profile.backend_timeout > 0:
            self._pending_backend[msg.msg_id] = mq
            self.env.detached(self._backend_watchdog(mq, msg))
        return msg

    def _backend_watchdog(self, mq, msg):
        yield self.env.charge(self.profile.backend_timeout)
        if self._pending_backend.pop(msg.msg_id, None) is not None:
            self._deliver_error(mq, ERR_TIMEOUT)

    def _deliver_error(self, mq, code):
        """Place an error entry on the mqueue's RX ring (drop if full)."""
        if mq.claim_rx_slot():
            mq.complete_rx(MQueueEntry(payload=b"", size=0, error=code))
