"""Fault injector mechanics: wire hooks, windows, determinism, and the
zero-overhead guarantee when no schedule is armed."""

import inspect
import os
import sys

import pytest

from repro import telemetry
from repro.config import XEON_E5_2620, XEON_VMA
from repro.errors import FaultError
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    LinkCorruption,
    LinkLoss,
    RxRingStall,
    SnicPause,
    SnicRestart,
)
from repro.hw.cpu import CorePool
from repro.hw.nic import Nic
from repro.net import Address, ClosedLoopGenerator, Client, Network
from repro.net.packet import UDP
from repro.net.stack import NetworkStack
from repro.sim import Environment, RngRegistry

SERVER_IP = "10.0.0.1"
PORT = 7777


class _EchoServer:
    """Minimal UDP echo endpoint on a NIC."""

    def __init__(self, env, network, ip=SERVER_IP, port=PORT, delay=5.0):
        self.nic = Nic(env, network, ip)
        self.delay = delay
        self.env = env
        self.pool = CorePool(env, XEON_E5_2620, count=4)
        self.stack = NetworkStack(env, self.pool, XEON_VMA)
        self.stack.listen(port)
        env.process(self._loop())

    def _loop(self):
        while True:
            msg = yield self.nic.recv()
            if self.stack.handle_control(msg, self.nic):
                continue
            yield self.env.timeout(self.delay)
            yield from self.nic.send(
                msg.reply(msg.payload, created_at=self.env.now))


def _rig(seed=7):
    env = Environment()
    network = Network(env)
    rng = RngRegistry(seed)
    server = _EchoServer(env, network)
    client = Client(env, network, "10.0.1.1", rng=rng)
    return env, network, rng, server, client


def _drive(env, client, concurrency=2, timeout=None, until=4000):
    gen = ClosedLoopGenerator(env, client, Address(SERVER_IP, PORT),
                              concurrency=concurrency,
                              payload_fn=lambda i: b"ping", proto=UDP,
                              timeout=timeout)
    env.run(until=until)
    return gen


class TestLossWindow:
    def test_certain_loss_drops_everything_in_window(self):
        env, network, rng, server, client = _rig()
        injector = FaultInjector(FaultSchedule([
            LinkLoss(SERVER_IP, start=1000, duration=1000, probability=1.0),
        ])).arm(env=env, network=network, rng=rng)
        gen = _drive(env, client, timeout=100, until=4000)
        dropped = injector.counts("injected")["link_loss"]
        assert dropped > 0
        assert network.wire_channel(SERVER_IP).dropped == dropped
        assert gen.timeouts > 0          # the window starved the client
        assert gen.completed > 0         # before and after it, traffic flows

    def test_corruption_counted_separately_from_loss(self):
        env, network, rng, server, client = _rig()
        injector = FaultInjector(FaultSchedule([
            LinkLoss(SERVER_IP, start=500, duration=800, probability=1.0),
            LinkCorruption(SERVER_IP, start=2000, duration=800,
                           probability=1.0),
        ])).arm(env=env, network=network, rng=rng)
        _drive(env, client, timeout=100, until=4000)
        counts = injector.counts("injected")
        assert counts["link_loss"] > 0
        assert counts["corruption"] > 0

    def test_hook_removed_after_last_window(self):
        env, network, rng, server, client = _rig()
        FaultInjector(FaultSchedule([
            LinkLoss(SERVER_IP, start=100, duration=200, probability=0.5),
        ])).arm(env=env, network=network, rng=rng)
        channel = network.wire_channel(SERVER_IP)
        _drive(env, client, until=2000)
        # The per-instance _land shadow is gone: the class fast path is
        # back and later traffic pays nothing for the faults layer.
        assert "_land" not in channel.__dict__


class TestRxStall:
    def test_stall_delays_then_recovers_without_loss(self):
        env, network, rng, server, client = _rig()
        injector = FaultInjector(FaultSchedule([
            RxRingStall(SERVER_IP, start=1000, duration=800),
        ])).arm(env=env, network=network, rng=rng)
        env.run(until=1000)
        gen = ClosedLoopGenerator(env, client, Address(SERVER_IP, PORT),
                                  concurrency=2,
                                  payload_fn=lambda i: b"ping", proto=UDP)
        env.run(until=1700)
        stalled = gen.completed        # requests are parked in the hold
        env.run(until=4000)
        assert stalled == 0
        assert gen.completed > 0       # burst lands once the window ends
        assert injector.counts("recovered")["rx_stall"] > 0
        assert network.wire_channel(SERVER_IP).dropped == 0

    def test_stall_overflow_drops_beyond_buffer_limit(self, monkeypatch):
        monkeypatch.setattr(RxRingStall, "buffer_limit", 1)
        env, network, rng, server, client = _rig()
        injector = FaultInjector(FaultSchedule([
            RxRingStall(SERVER_IP, start=500, duration=1000),
        ])).arm(env=env, network=network, rng=rng)
        _drive(env, client, concurrency=4, timeout=200, until=3000)
        assert injector.counts("dropped")["rx_stall"] > 0
        assert injector.counts("recovered")["rx_stall"] == 1


class TestDeterminism:
    def _sample(self):
        with telemetry.scope():
            return self._run_once()

    def _run_once(self):
        env, network, rng, server, client = _rig(seed=11)
        injector = FaultInjector(FaultSchedule([
            LinkLoss(SERVER_IP, start=500, duration=2000, probability=0.5),
        ])).arm(env=env, network=network, rng=rng)
        gen = _drive(env, client, timeout=150, until=4000)
        return (env._eid, tuple(client.latency._samples), gen.completed,
                gen.timeouts, injector.counts("injected"))

    def test_same_seed_same_fault_pattern(self):
        assert self._sample() == self._sample()


class TestUnarmedIsFree:
    def _workload(self, with_injector):
        env, network, rng, server, client = _rig(seed=3)
        if with_injector:
            FaultInjector(FaultSchedule()).arm(env=env, network=network,
                                               rng=rng)
        gen = _drive(env, client, timeout=300, until=3000)
        return (env._eid, tuple(client.latency._samples), gen.completed,
                network.wire_channel(SERVER_IP).delivered)

    def test_armed_empty_schedule_is_bit_identical_to_none(self):
        # The acceptance bar for the whole layer: present but unarmed
        # (or armed with zero windows) consumes no schedule slots and
        # perturbs nothing.
        assert self._workload(False) == self._workload(True)

    def test_armed_empty_schedule_runs_no_fault_code(self):
        # Bit-identity cannot see a hook that runs without scheduling
        # anything; a profile hook over env.run() can.
        from repro.apps.base import SpinApp
        from repro.experiments.common import LYNX_BLUEFIELD, deploy

        faults_dir = os.path.dirname(inspect.getfile(FaultInjector)) + os.sep
        called = set()

        def profile(frame, event, _arg):
            if event == "call" and \
                    frame.f_code.co_filename.startswith(faults_dir):
                called.add(frame.f_code.co_name)

        with telemetry.scope():
            dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0))
            FaultInjector(FaultSchedule()).arm(dep)
            client = dep.tb.client("10.0.9.1")
            ClosedLoopGenerator(dep.env, client, dep.address, 4,
                                payload_fn=lambda i: b"x" * 64)
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                dep.env.run(until=3000.0)
            finally:
                sys.setprofile(previous)
        assert client.responses.count > 0
        assert called == set()

    def test_no_instance_shadow_without_wire_faults(self):
        env, network, rng, server, client = _rig()
        FaultInjector(FaultSchedule([
            SnicPause(start=100, duration=50),
        ])).arm(env=env, network=network, rng=rng, server=server)
        assert "_land" not in network.wire_channel(SERVER_IP).__dict__


class TestSnicPause:
    def test_pause_freezes_all_worker_cores(self):
        from repro.apps.base import SpinApp
        from repro.experiments.common import LYNX_BLUEFIELD, deploy

        dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0), n_mqueues=2,
                     proto=UDP)
        FaultInjector(FaultSchedule([
            SnicPause(start=3000, duration=2000),
        ])).arm(dep)
        client = dep.tb.client("10.0.9.1")
        gen = ClosedLoopGenerator(dep.env, client, dep.address,
                                  concurrency=2,
                                  payload_fn=lambda i: b"ping", proto=UDP)
        dep.env.run(until=3100)
        before = gen.completed
        assert before > 0
        dep.env.run(until=4900)
        # Dispatcher and egress forwarder are both seized: at most the
        # already-in-flight responses land during the window.
        assert gen.completed <= before + 4
        dep.env.run(until=9000)
        assert gen.completed > before + 10   # service resumed

    def test_snic_restart_flushes_rx_ring_backlog(self):
        from repro.apps.base import SpinApp
        from repro.experiments.common import LYNX_BLUEFIELD, deploy
        from repro.net import OpenLoopGenerator

        dep = deploy(LYNX_BLUEFIELD, app=SpinApp(50.0), n_mqueues=1,
                     proto=UDP)
        injector = FaultInjector(FaultSchedule([
            SnicRestart(start=4000, duration=1000),
        ])).arm(dep)
        client = dep.tb.client("10.0.9.1")
        # Overdrive the server so the NIC RX ring holds a backlog at the
        # instant the restart fires.
        OpenLoopGenerator(dep.env, client, dep.address, rate_per_us=0.5,
                          payload_fn=lambda i: b"ping", proto=UDP)
        dep.env.run(until=8000)
        counts = injector.counts("dropped")
        assert counts.get("snic_restart", 0) > 0
        assert injector.counts("injected")["snic_restart"] == 1
        assert injector.counts("recovered")["snic_restart"] == 1


class TestArming:
    def test_arm_twice_rejected(self):
        env = Environment()
        injector = FaultInjector(FaultSchedule()).arm(env=env)
        with pytest.raises(FaultError, match="already armed"):
            injector.arm(env=env)

    def test_wire_fault_without_network_rejected(self):
        with pytest.raises(FaultError, match="network"):
            FaultInjector(FaultSchedule([
                LinkLoss("10.0.0.1", 0, 1, probability=0.5),
            ])).arm(env=Environment())

    def test_accel_fault_without_target_rejected(self):
        from repro.faults import AcceleratorOutage

        with pytest.raises(FaultError, match="GpuService or a gpu"):
            FaultInjector(FaultSchedule([
                AcceleratorOutage(0, 1),
            ])).arm(env=Environment())

    def test_needs_environment(self):
        with pytest.raises(FaultError, match="environment"):
            FaultInjector(FaultSchedule()).arm()

    def test_needs_a_schedule(self):
        with pytest.raises(FaultError, match="FaultSchedule"):
            FaultInjector([LinkLoss(SERVER_IP, 0, 1, probability=0.5)])

    def test_disarm_restores_channel_fast_path(self):
        env, network, rng, server, client = _rig()
        injector = FaultInjector(FaultSchedule([
            LinkLoss(SERVER_IP, start=100, duration=10000, probability=1.0),
        ])).arm(env=env, network=network, rng=rng)
        env.run(until=200)           # window is open, hook installed
        channel = network.wire_channel(SERVER_IP)
        assert "_land" in channel.__dict__
        injector.disarm()
        assert "_land" not in channel.__dict__
        gen = _drive(env, client, until=2000)
        assert gen.completed > 0     # pending windows are inert
