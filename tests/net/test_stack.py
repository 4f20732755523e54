"""Network stack cost models and TCP connection state."""

import pytest

from repro import Testbed, telemetry
from repro.apps.base import SpinApp
from repro.apps.memcached import MemcachedServer, encode_get
from repro.config import (
    ARM_KERNEL,
    ARM_VMA,
    DEFAULT_CONFIG,
    XEON_KERNEL,
    XEON_VMA,
)
from repro.errors import NetworkError
from repro.experiments.common import HOST_CENTRIC, LYNX_BLUEFIELD, deploy
from repro.hw.cpu import CorePool
from repro.config import XEON_E5_2620
from repro.net import ClosedLoopGenerator
from repro.net.packet import Address, Message, TCP, UDP
from repro.net.stack import NetworkStack, TcpConnection
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def stack(env):
    pool = CorePool(env, XEON_E5_2620, count=1)
    return NetworkStack(env, pool, XEON_VMA)


def _msg(proto=UDP, size=64, conn=None):
    return Message(Address("10.0.0.9", 1111), Address("10.0.0.1", 7777),
                   b"x" * size, proto=proto, conn=conn)


class TestCosts:
    def test_udp_cost_scales_with_size(self, stack):
        small = stack.rx_cost(_msg(size=10))
        large = stack.rx_cost(_msg(size=1400))
        assert large > small
        assert small == pytest.approx(
            XEON_VMA.udp_rx_fixed + 10 * XEON_VMA.udp_per_byte)

    def test_tcp_costs_exceed_udp(self, stack):
        assert stack.rx_cost(_msg(TCP)) > stack.rx_cost(_msg(UDP))
        assert stack.tx_cost(_msg(TCP)) > stack.tx_cost(_msg(UDP))

    def test_vma_cheaper_than_kernel_by_calibrated_factor(self):
        # §5.1.1: VMA cuts UDP processing ~4x on ARM, ~2x on Xeon.
        arm_ratio = ARM_KERNEL.udp_rx_fixed / ARM_VMA.udp_rx_fixed
        xeon_ratio = XEON_KERNEL.udp_rx_fixed / XEON_VMA.udp_rx_fixed
        assert arm_ratio == pytest.approx(4.0, rel=0.05)
        assert xeon_ratio == pytest.approx(2.0, rel=0.05)

    def test_processing_charges_core_time(self, env, stack):
        def proc(env):
            yield from stack.process_rx(_msg())
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(stack.rx_cost(_msg()))


class TestTcpConnection:
    def test_sequence_numbers_per_side(self):
        conn = TcpConnection(Address("c", 1), Address("s", 2))
        assert conn.next_seq(Address("c", 1)) == 1
        assert conn.next_seq(Address("c", 1)) == 2
        assert conn.next_seq(Address("s", 2)) == 1

    def test_in_order_delivery_validated(self):
        conn = TcpConnection(Address("c", 1), Address("s", 2))
        msg = _msg(TCP, conn=conn)
        msg.src = Address("c", 1)
        msg.meta["tcp_seq"] = 1
        conn.deliver(msg)
        msg2 = _msg(TCP, conn=conn)
        msg2.src = Address("c", 1)
        msg2.meta["tcp_seq"] = 3  # skipped 2
        with pytest.raises(NetworkError, match="out-of-order"):
            conn.deliver(msg2)

    def test_segment_without_seq_rejected(self):
        conn = TcpConnection(Address("c", 1), Address("s", 2))
        with pytest.raises(NetworkError):
            conn.deliver(_msg(TCP, conn=conn))

    def test_process_tx_stamps_and_rx_validates(self, env, stack):
        conn = TcpConnection(Address("10.0.0.9", 1111), Address("10.0.0.1", 7777))
        msg = _msg(TCP, conn=conn)

        def proc(env):
            yield from stack.process_tx(msg)
            yield from stack.process_rx(msg)

        env.process(proc(env))
        env.run()
        assert msg.meta["tcp_seq"] == 1
        assert conn.client_delivered == 1


class TestControlHandling:
    def test_listening_ports(self, stack):
        stack.listen(7777)
        assert stack.is_listening(7777)
        assert not stack.is_listening(8888)

    def test_non_control_messages_ignored(self, stack):
        assert not stack.handle_control(_msg(), nic=None)

    def test_closed_port_syn_dropped_and_counted(self, env, stack):
        # A SYN for a port nobody listens on is consumed (True) but
        # dropped — and the loss is visible, not silent.
        conn = TcpConnection(client=Address("10.0.0.9", 1111),
                             server=Address("10.0.0.1", 9999))
        syn = Message(Address("10.0.0.9", 1111), Address("10.0.0.1", 9999),
                      b"", proto=TCP, conn=conn, kind="tcp-syn")
        syn.meta["conn"] = conn
        assert stack.handle_control(syn, nic=None)
        assert stack.closed_port_drops == 1
        assert not conn.established
        # The counter is in the telemetry registry for the scorecard.
        from repro import telemetry

        snap = telemetry.registry().snapshot(
            "net.stack.%s.closed_port_drops" % stack.name)
        assert snap["net.stack.%s.closed_port_drops" % stack.name][
            "value"] == 1

    def test_open_port_syn_not_counted_as_drop(self, env):
        from repro.hw.nic import Nic
        from repro.net import Network

        network = Network(env)
        nic = Nic(env, network, "10.0.0.1")
        pool = CorePool(env, XEON_E5_2620, count=1)
        stack = NetworkStack(env, pool, XEON_VMA, name="open-port-stack")
        stack.listen(7777)
        conn = TcpConnection(client=Address("10.0.0.9", 1111),
                             server=Address("10.0.0.1", 7777))
        syn = Message(Address("10.0.0.9", 1111), Address("10.0.0.1", 7777),
                      b"", proto=TCP, conn=conn, kind="tcp-syn")
        syn.meta["conn"] = conn
        assert stack.handle_control(syn, nic=nic)
        env.run(until=100)
        assert stack.closed_port_drops == 0
        assert conn.established


def _served_traced(design, trace):
    """Four deadline-free closed-loop workers against *design* for 3 ms,
    then a drain; returns (served, stack rx records, stack tx records,
    events processed)."""
    config = DEFAULT_CONFIG.with_(trace=trace)
    with telemetry.scope():
        if design == "memcached":
            tb = Testbed(config=config, seed=42)
            host = tb.machine("10.0.0.2")
            server = MemcachedServer(tb.env, host.nic,
                                     host.pool(count=2, name="mc"), XEON_VMA)
            address = Address("10.0.0.2", 11211)
            payload = encode_get(b"k1")
        else:
            dep = deploy(design, app=SpinApp(20.0), config=config)
            tb, server, address = dep.tb, dep.server, dep.address
            payload = b"x" * 64
        gen = ClosedLoopGenerator(tb.env, tb.client("10.0.9.1"), address, 4,
                                  payload_fn=lambda i: payload, proto=UDP)
        tb.env.run(until=3000.0)
        gen.stop()
        tb.env.run(until=13000.0)            # drain every in-flight request
    served = (server.ops if design == "memcached" else server.responses).count
    assert served == gen.completed
    name = server.stack.name
    rx = [r for r in tb.tracer.records if r[1] == name and r[2] == "rx"]
    tx = [r for r in tb.tracer.records if r[1] == name and r[2] == "tx"]
    return served, len(rx), len(tx), tb.env.events_processed


class TestServingPathTrace:
    """Every serving path emits the records ``process_rx``/``process_tx``
    emit: one stack ``rx`` and one stack ``tx`` per served request, and
    tracing moves no event."""

    @pytest.mark.parametrize("design", [LYNX_BLUEFIELD, HOST_CENTRIC,
                                        "memcached"])
    def test_one_rx_and_one_tx_per_served_request(self, design):
        served, rx, tx, events = _served_traced(design, trace=True)
        assert served > 20
        assert rx == tx == served
        assert _served_traced(design, trace=False) == (served, 0, 0, events)
