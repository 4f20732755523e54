"""Accelerator I/O library and runtime setup validation."""

from types import SimpleNamespace

import pytest

from repro import Testbed
from repro.apps.base import EchoApp
from repro.errors import ConfigError
from repro.hw.memory import MemoryRegion
from repro.lynx.iolib import AcceleratorIO
from repro.lynx.mqueue import CLIENT, MQueue, MQueueEntry
from repro.net.packet import Address
from repro.sim import Environment, Store


class TestAcceleratorIO:
    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorIO(Environment(), -1.0)

    def test_recv_charges_local_latency(self):
        env = Environment()
        memory = MemoryRegion("m")
        mq = MQueue(env, memory, 8)
        io = AcceleratorIO(env, local_latency=0.7)
        mq.claim_rx_slot()
        mq.complete_rx(MQueueEntry(b"req", 3))

        def proc(env):
            entry = yield from io.recv(mq)
            return (env.now, bytes(entry.payload))

        p = env.process(proc(env))
        env.run()
        assert p.value == (0.7, b"req")
        assert io.received == 1

    def test_send_rings_doorbell(self):
        env = Environment()
        memory = MemoryRegion("m")
        mq = MQueue(env, memory, 8)
        mq.tx_doorbell = Store(env)
        io = AcceleratorIO(env, local_latency=0.5)

        def proc(env):
            yield from io.send(mq, b"resp")

        env.process(proc(env))
        env.run()
        assert len(mq.tx_ring) == 1
        assert mq.tx_doorbell.try_get() is mq
        assert io.sent == 1

    def test_send_propagates_reply_routing(self):
        env = Environment()
        memory = MemoryRegion("m")
        mq = MQueue(env, memory, 8)
        mq.tx_doorbell = Store(env)
        io = AcceleratorIO(env, local_latency=0.1)
        from repro.net.packet import Message

        request = Message(Address("c", 1), Address("s", 2), b"q")
        incoming = MQueueEntry(b"q", 1, request_msg=request)

        def proc(env):
            yield from io.send(mq, b"a", reply_to=incoming)

        env.process(proc(env))
        env.run()
        sent_entry = mq.tx_ring.try_get()
        assert sent_entry.request_msg is request


class TestRuntimeValidation:
    def _runtime(self):
        tb = Testbed()
        host = tb.machine("10.0.0.1")
        gpu = host.add_gpu()
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        return tb, host, gpu, runtime, server

    def test_attach_is_idempotent_per_accelerator(self):
        tb, host, gpu, runtime, server = self._runtime()
        m1 = runtime.attach_accelerator(gpu)
        m2 = runtime.attach_accelerator(gpu)
        assert m1 is m2

    def test_hidden_memory_rejected(self):
        tb, host, gpu, runtime, server = self._runtime()
        accel = SimpleNamespace(
            memory=MemoryRegion("hidden", exposed_on_pcie=False))
        with pytest.raises(ConfigError, match="BAR-exposed"):
            runtime.attach_accelerator(accel)

    def test_unknown_backend_in_context(self):
        tb, host, gpu, runtime, server = self._runtime()
        proc = tb.env.process(runtime.start_gpu_service(
            gpu, EchoApp(), port=7777, n_mqueues=1))
        tb.run(until=100)
        ctx = proc.value.contexts[0]
        with pytest.raises(ConfigError, match="no client mqueue"):
            # generator raises on first resume
            next(ctx.call("missing-backend", b"x"))

    def test_barrier_inferred_from_gpu_profile(self):
        from repro.config import GpuProfile

        tb, host, gpu, runtime, server = self._runtime()
        barrier_gpu = host.add_gpu(GpuProfile(name="ordered",
                                              needs_write_barrier=True))
        manager = runtime.attach_accelerator(barrier_gpu)
        assert manager.needs_barrier

    def test_service_handle_counts(self):
        tb, host, gpu, runtime, server = self._runtime()
        proc = tb.env.process(runtime.start_gpu_service(
            gpu, EchoApp(), port=7777, n_mqueues=3))
        tb.run(until=100)
        service = proc.value
        assert len(service.mqueues) == 3
        assert len(service.threadblocks) == 3
        assert service.delivered == 0 and service.dropped == 0


class TestThreadblockDelays:
    """A stock-handle threadblock steps its fixed delays with
    ``env.defer``; a delay already on the schedule when the block is
    interrupted must fire into a dead block and do nothing."""

    KERNEL_US = 20.0

    def _service(self, dynamic=False):
        from repro.apps.base import SpinApp
        from repro.config import K40M
        from repro.hw.gpu import GPU, CudaDriver
        from repro.lynx.runtime import AppContext, GpuService, _ThreadblockOp

        env = Environment()
        gpu = GPU(env, K40M, CudaDriver(env))
        mq = MQueue(env, MemoryRegion("m"), 8)
        mq.tx_doorbell = Store(env)
        io = AcceleratorIO(env, gpu.poll_latency)
        app = SpinApp(self.KERNEL_US)
        app.use_dynamic_parallelism = dynamic
        ctx = AppContext(env, io, gpu, mq)

        def respawn():
            return [_ThreadblockOp(env, gpu, io, app, ctx)]

        service = GpuService(gpu, None, [mq], [ctx], respawn(),
                             respawn=respawn)
        return env, service, mq, io

    @staticmethod
    def _deliver(mq):
        assert mq.claim_rx_slot()
        mq.complete_rx(MQueueEntry(b"req", 3))

    def _interrupt_at(self, offset, dynamic=False):
        env, service, mq, io = self._service(dynamic)
        env.run(until=1.0)              # booted, parked on the RX ring
        self._deliver(mq)               # popped at t=1, poll delay starts
        env.run(until=1.0 + offset)
        assert len(mq.rx_ring) == 0
        received = io.received
        assert service.interrupt("test") == 1
        self._deliver(mq)               # waits for a live block
        env.run(until=100.0)            # every pending delay has fired
        assert not service.threadblocks[0].is_alive
        # only the dead block's persistent slot stays claimed
        assert service.gpu.sm_slots.in_use == 1
        assert io.received == received
        assert io.sent == 0
        assert len(mq.tx_ring) == 0
        assert len(mq.tx_doorbell.items) == 0
        assert len(mq.rx_ring) == 1     # no further RX pop
        service.restart()
        env.run(until=200.0)
        assert io.sent == 1
        assert len(mq.tx_ring) == 1
        assert len(mq.rx_ring) == 0
        return received

    def test_interrupt_in_local_poll_delay(self):
        # poll latency is 0.6 us: the block dies before counting the entry
        assert self._interrupt_at(0.3) == 0

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_interrupt_in_kernel_delay(self, dynamic):
        # 0.6 us poll (and a 6 us device launch), then a 20 us kernel:
        # the entry was counted
        assert self._interrupt_at(10.0, dynamic) == 1
