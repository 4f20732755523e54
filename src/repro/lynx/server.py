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
callback state machines (:class:`_RxOp`, :class:`_TxOp`) built from
``CorePool.run_then`` and ``Channel.transfer_then`` legs, which take
the steps of the generators they mirror at the same times and in the
same order, minus the entries that only relayed to the next step
(DESIGN.md §4.6 relay-collapse rule) — so simulated results are
unchanged under a fixed seed while the hot path allocates no frames
and spawns no processes per message.
"""

from ..errors import ConfigError, NetworkError
from ..net.packet import Address, Message, TCP
from ..net.stack import NetworkStack, TcpConnection
from ..sim import NullTracer, RateMeter
from .. import telemetry
from .dispatch import RoundRobin
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


class _RxOp:
    """One worker core's ingress loop as a callback state machine.

    Mirrors the retired ``_rx_loop``/``_handle_rx`` generator pair step
    for step: NIC recv -> stack rx cost -> dispatch cost -> RDMA post
    cost -> delivery, each pool occupancy one :meth:`CorePool.run_then`
    leg.  One op per worker core lives for the whole simulation, so
    steady-state ingress allocates nothing.
    """

    __slots__ = ("server", "env", "pool", "msg", "mq", "manager",
                 "binding")

    def __init__(self, server):
        self.server = server
        self.env = server.env
        self.pool = server.workers
        self.msg = None
        self.mq = None
        self.manager = None
        self.binding = None

    def start(self):
        # URGENT kick at the current time: the exact schedule slot the
        # rx-loop Process's init kick used to occupy.
        self.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        """Wait for the next RX-ring message (the loop's ``nic.recv()``)."""
        self.server.nic.rx.get_then(self._on_msg)

    def _on_msg(self, msg):
        server = self.server
        server.nic.rx_rate.count += 1       # inlined nic.recv() rate tick
        if msg.kind == "tcp-synack":
            waiter = server._synack_waiters.pop(msg.conn.conn_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(msg)
            self._arm()
            return
        if server.stack.handle_control(msg, server.nic):
            self._arm()
            return
        # stack.process_rx: trace, then the calibrated rx cost on the
        # worker pool.
        self.msg = msg
        stack = server.stack
        if stack._tracer is not None:
            stack._tracer.emit(stack.name, "rx", msg.msg_id, msg.proto)
        self.pool.run_then(stack.rx_cost(msg), self._rx_done)

    def _rx_done(self):
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
        pool.run_then(server.profile.dispatch_cost / pool.profile.speed_factor,
                      self._dispatched, memory_intensity=0.0, working_set=0)

    def _dispatched(self):
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
        self.pool.run_then(manager.engine.profile.post_cost, self._posted)

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

    def _posted(self):
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
    then ``nic.send`` as one NIC-TX :meth:`Channel.transfer_then` hop.
    The task's start kick only relayed to the forward leg, so
    :meth:`start` claims it at once.  Op records are pooled on the
    server (``_tx_op_pool``).
    """

    __slots__ = ("server", "env", "pool", "mq", "entry", "response")

    def __init__(self, server):
        self.server = server
        self.env = server.env
        self.pool = server.workers
        self.mq = None
        self.entry = None
        self.response = None

    def start(self, mq, entry):
        self.mq = mq
        self.entry = entry
        # Egress runs at higher core priority than ingress: the real
        # forwarder round-robins and is never starved by a request flood.
        pool = self.pool
        pool.run_then(self.server.profile.forward_cost
                      / pool.profile.speed_factor, self._forwarded,
                      priority=-1, memory_intensity=0.0, working_set=0)

    def _forwarded(self):
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
        stack = server.stack
        if stack._tracer is not None:
            stack._tracer.emit(stack.name, "tx", response.msg_id,
                               response.proto)
        self.pool.run_then(stack.tx_cost(response), self._stack_done,
                           priority=-1)

    def _stack_done(self):
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
        server.nic.tx.transfer_then(self.response.wire_size, self._sent)

    def _sent(self):
        nic = self.server.nic
        nic.tx_rate.count += 1            # inlined RateMeter.tick()
        nic.network.deliver(self.response)
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
        yield self.env.timeout(self.profile.backend_timeout)
        if self._pending_backend.pop(msg.msg_id, None) is not None:
            self._deliver_error(mq, ERR_TIMEOUT)

    def _deliver_error(self, mq, code):
        """Place an error entry on the mqueue's RX ring (drop if full)."""
        if mq.claim_rx_slot():
            mq.complete_rx(MQueueEntry(payload=b"", size=0, error=code))
