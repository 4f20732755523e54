"""The traditional host-centric accelerated server (Figure 1a, §6.1).

Network messages are received by host CPU cores; for each request the
CPU copies the payload to the GPU, invokes a kernel on a CUDA stream
from a pool, copies the result back, and replies.  Every step interacts
with the GPU driver, whose lock serializes the CPU-side work — this is
the §3.2 accelerator-invocation bottleneck, and the paper runs this
server on one core because "more threads result in a slowdown due to an
NVIDIA driver bottleneck".
"""

from itertools import count

from ..config import XEON_VMA
from ..errors import ConfigError, NetworkError
from ..net.packet import Address, Message, TCP, UDP, payload_size
from ..net.stack import NetworkStack, TcpConnection
from ..sim import RateMeter, Resource

#: CUDA streams per GPU: bounds the requests in flight on each GPU
STREAMS_PER_GPU = 256


class HostContext:
    """What a host-centric app handler can use."""

    def __init__(self, server, gpu):
        self.server = server
        self.env = server.env
        self.pool = server.pool
        self.gpu = gpu

    def gpu_pipeline(self, in_bytes, out_bytes, duration):
        """Generator: H2D copy, kernel, D2H copy — one request's GPU leg.

        While the kernel runs, the CPU spins in cudaStreamSynchronize:
        that burns core time concurrently with the kernel (hurting
        throughput under load) without adding single-request latency.
        """
        gpu = self.gpu
        yield from gpu.memcpy_async(self.pool, in_bytes)
        yield from gpu.driver.op(self.pool, gpu.profile.driver_op_cost)
        # Spin starts once the launch call returns, so it overlaps the
        # kernel instead of delaying the launch itself.
        spin = self.env.process(
            self.pool.run_calibrated(gpu.profile.sync_poll_cost),
            name="sync-spin")
        yield from gpu._execute(duration, 1)
        yield self.env.timeout(gpu.profile.sync_latency)
        yield spin
        yield from gpu.memcpy_async(self.pool, out_bytes)

    def gpu_pipeline_blocking(self, in_bytes, out_bytes, duration):
        """Synchronous variant: the CPU blocks through the whole GPU leg.

        Models baselines written with synchronous cudaMemcpy +
        cudaDeviceSynchronize per request (the GPUnet-style Face
        Verification baseline): the worker core is busy for the full
        kernel duration, so CPU concurrency — not the GPU — bounds
        throughput.
        """
        gpu = self.gpu
        yield from gpu.memcpy_async(self.pool, in_bytes)
        yield from gpu.driver.op(self.pool, gpu.profile.driver_op_cost)
        spin = self.env.process(self.pool.run_calibrated(
            gpu.profile.launch_latency + gpu.scaled(duration)
            + gpu.profile.sync_latency), name="sync-block")
        yield from gpu._execute(duration, 1)
        yield self.env.timeout(gpu.profile.sync_latency)
        yield spin
        yield from gpu.memcpy_async(self.pool, out_bytes)

    def backend_call(self, backend, payload):
        """Generator: asynchronous RPC to a backend service."""
        return (yield from self.server.backend_request(backend, payload))


class _HostRxOp:
    """One serving core's ingress loop as a callback state machine.

    Mirrors the retired ``_rx_loop`` generator process event for event:
    NIC recv, control handling, stack rx cost as one
    :meth:`CorePool.run_then` leg on the serving pool (with the pool's
    cache defaults, so E02's noisy-neighbor setup still applies),
    CUDA-stream claim, then the detached per-request GPU stage.  The
    app-specific ``_gpu_stage`` stays a generator — it is spawned
    through the detached-task path, which consumes the same
    schedule slot the old inline ``env.detached`` call did.
    """

    __slots__ = ("server", "env", "pool", "msg")

    def __init__(self, server):
        self.server = server
        self.env = server.env
        self.pool = server.pool
        self.msg = None

    def start(self):
        # URGENT kick at now: the slot Process.__init__ used to consume.
        self.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        self.server.nic.rx.get_then(self._on_msg)

    def _on_msg(self, msg):
        server = self.server
        server.nic.rx_rate.count += 1       # inlined nic.recv() rate tick
        if msg.kind == "tcp-synack":
            waiter = server._waiters.pop(("synack", msg.conn.conn_id), None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(msg)
            self._arm()
            return
        waiter = server._waiters.pop(msg.meta.get("in_reply_to"), None)
        if waiter is not None:
            # Backend response: the requesting coroutine pays stack RX.
            if not waiter.triggered:
                waiter.succeed(msg)
            self._arm()
            return
        if server.stack.handle_control(msg, server.nic):
            self._arm()
            return
        if msg.dst.port != server.port:
            server.dropped += 1
            self._arm()
            return
        # stack.process_rx: trace, then run_calibrated(rx_cost) on the
        # serving pool.
        self.msg = msg
        stack = server.stack
        if stack._tracer is not None:
            stack._tracer.emit(stack.name, "rx", msg.msg_id, msg.proto)
        self.pool.run_then(stack.rx_cost(msg), self._received)

    def _received(self):
        server = self.server
        msg = self.msg
        if msg.proto == TCP and msg.conn is not None:
            msg.conn.deliver(msg)
        server.requests.count += 1          # inlined RateMeter.tick()
        # Claim a CUDA stream (blocking claims backpressure into the
        # RX ring, which then drops — classic overloaded server).
        stream = server.streams.request()
        stream.callbacks.append(self._stream_granted)

    def _stream_granted(self, stream):
        server = self.server
        msg = self.msg
        self.msg = None
        server.env.detached(server._gpu_stage(msg, stream))
        self._arm()


class HostCentricServer:
    """CPU-driven GPU server (the baseline in every §6 experiment)."""

    def __init__(self, env, machine, gpus, app, port, cores=1, proto=UDP):
        if not gpus:
            raise ConfigError("host-centric server needs at least one GPU")
        self.env = env
        self.machine = machine
        self.gpus = list(gpus)
        self.app = app
        self.port = port
        self.proto = proto
        self.name = "hostcentric@%s" % machine.ip
        self.pool = machine.pool(count=cores, name="%s-pool" % self.name)
        self.stack = NetworkStack(env, self.pool, XEON_VMA,
                                  name="%s-stack" % self.name)
        self.stack.listen(port)
        self.nic = machine.nic
        #: CUDA stream pool — bounds concurrently in-flight GPU requests
        self.streams = Resource(env, STREAMS_PER_GPU * len(self.gpus),
                                name="%s-streams" % self.name)
        self.requests = RateMeter(env, name="%s-reqs" % self.name)
        self.responses = RateMeter(env, name="%s-resps" % self.name)
        self.dropped = 0
        self._rr = count()
        self._backends = {}
        self._waiters = {}
        self._next_port = 30000
        # One ingress loop per serving core; overload sheds at the NIC
        # RX ring, and in-flight GPU work is bounded by the stream pool.
        for _ in range(cores):
            _HostRxOp(self).start()

    # -- backends (multi-tier support, §6.4) -----------------------------------

    def add_backend(self, name, destination, proto=TCP):
        """Generator: register + connect a backend service."""
        conn = None
        if proto == TCP:
            self._next_port += 1
            src = Address(self.machine.ip, self._next_port)
            conn = TcpConnection(client=src, server=destination)
            syn = Message(src=src, dst=destination, payload=b"", proto=TCP,
                          created_at=self.env.now, conn=conn, kind="tcp-syn")
            syn.meta["conn"] = conn
            waiter = self.env.event()
            self._waiters[("synack", conn.conn_id)] = waiter
            yield from self.nic.send(syn)
            yield waiter
            if not conn.established:
                raise NetworkError("backend %s connect failed" % name)
        self._backends[name] = (destination, proto, conn)

    def backend_request(self, name, payload):
        """Generator: send a request to a named backend; returns response."""
        try:
            destination, proto, conn = self._backends[name]
        except KeyError:
            raise ConfigError("unknown backend %r" % name)
        if conn is not None:
            src = conn.client
        else:
            self._next_port += 1
            src = Address(self.machine.ip, self._next_port)
        msg = Message(src=src, dst=destination, payload=payload, proto=proto,
                      created_at=self.env.now, conn=conn)
        waiter = self.env.event()
        self._waiters[msg.msg_id] = waiter
        yield from self.stack.process_tx(msg)
        yield from self.nic.send(msg)
        response = yield waiter
        yield from self.stack.process_rx(response)
        return response

    # -- request path ---------------------------------------------------------------
    # Ingress lives in :class:`_HostRxOp`; only the per-request GPU
    # stage below still runs as a (detached) generator.

    def _gpu_stage(self, msg, stream):
        """The per-request asynchronous stream pipeline + reply."""
        try:
            gpu = self.gpus[next(self._rr) % len(self.gpus)]
            ctx = HostContext(self, gpu)
            result = yield from self.app.handle_host(ctx, msg)
        finally:
            stream.release()
        if result is None:
            return
        response = msg.reply(result, created_at=self.env.now)
        if response.conn is not None:
            response.meta["tcp_seq"] = response.conn.next_seq(response.src)
        stack = self.stack
        if stack._tracer is not None:
            stack._tracer.emit(stack.name, "tx", response.msg_id,
                               response.proto)
        yield from self.pool.run_calibrated(stack.tx_cost(response),
                                            priority=-1)
        self.responses.tick()
        yield from self.nic.send(response)


def default_handle_host(app, ctx, msg):
    """Default host-side handler: real compute + the GPU pipeline."""
    result = app.compute(msg.payload)
    yield from ctx.gpu_pipeline(msg.size, payload_size(result),
                                app.gpu_duration)
    return result
