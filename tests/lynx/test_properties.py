"""Property-based tests of the Lynx data plane invariants."""

from hypothesis import given, settings, strategies as st

from repro.hw.memory import MemoryRegion
from repro.lynx.mqueue import MQueue, MQueueEntry
from repro.sim import Environment


@given(ops=st.lists(st.sampled_from(["claim", "complete", "pop", "abort"]),
                    min_size=1, max_size=120),
       entries=st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_mqueue_rx_conservation(ops, entries):
    """Under any legal claim/complete/pop/abort sequence:
    0 <= occupancy <= entries, and delivered == popped + ring depth."""
    env = Environment()
    mq = MQueue(env, MemoryRegion("m"), entries)
    claimed_not_completed = 0
    completed_not_popped = 0
    popped = 0

    for op in ops:
        if op == "claim":
            ok = mq.claim_rx_slot()
            expected = (claimed_not_completed + completed_not_popped
                        < entries)
            assert ok == expected
            if ok:
                claimed_not_completed += 1
        elif op == "complete" and claimed_not_completed > 0:
            mq.complete_rx(MQueueEntry(b"x", 1))
            claimed_not_completed -= 1
            completed_not_popped += 1
        elif op == "pop" and completed_not_popped > 0:
            def popper(env):
                yield mq.pop_rx()

            env.process(popper(env))
            env.run(until=env.now + 1)
            completed_not_popped -= 1
            popped += 1
        elif op == "abort" and claimed_not_completed > 0:
            mq.abort_rx()
            claimed_not_completed -= 1
        env.run(until=env.now + 1)
        assert 0 <= mq.rx_occupancy <= entries
        assert mq.rx_occupancy == claimed_not_completed + completed_not_popped
        assert mq.delivered == popped + len(mq.rx_ring)


@given(payloads=st.lists(st.binary(min_size=1, max_size=128), min_size=1,
                         max_size=25))
@settings(max_examples=25, deadline=None)
def test_echo_end_to_end_integrity(payloads):
    """Arbitrary payloads survive the full Lynx data plane unchanged and
    arrive back in order (single client, single mqueue)."""
    from repro import Testbed
    from repro.apps.base import EchoApp
    from repro.net import Address
    from repro.net.packet import UDP

    tb = Testbed()
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu()
    snic = tb.bluefield("10.0.0.100")
    runtime, server = tb.lynx_on_bluefield(snic)
    env.process(runtime.start_gpu_service(gpu, EchoApp(), port=7777,
                                          n_mqueues=2))
    env.run(until=100)
    client = tb.client("10.0.1.1")
    received = []

    def drive(env):
        for payload in payloads:
            response = yield from client.request(payload,
                                                 Address("10.0.0.100", 7777),
                                                 proto=UDP)
            received.append(bytes(response.payload))

    env.process(drive(env))
    env.run(until=100 + 200.0 * len(payloads))
    assert received == payloads


@given(n_messages=st.integers(min_value=1, max_value=60),
       ring=st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_message_conservation_under_overload(n_messages, ring):
    """Every admitted request is exactly one of: delivered or dropped."""
    from dataclasses import replace

    from repro import Testbed
    from repro.apps.base import SpinApp
    from repro.config import DEFAULT_CONFIG
    from repro.net.packet import Address, Message, UDP

    config = DEFAULT_CONFIG.with_(
        lynx=replace(DEFAULT_CONFIG.lynx, ring_entries=ring))
    tb = Testbed(config=config)
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu = host.add_gpu()
    snic = tb.bluefield("10.0.0.100")
    runtime, server = tb.lynx_on_bluefield(snic)
    proc = env.process(runtime.start_gpu_service(
        gpu, SpinApp(500.0), port=7777, n_mqueues=1))
    env.run(until=100)
    service = proc.value
    src = Address("10.0.8.1", 5555)
    for _ in range(n_messages):
        tb.network.deliver(Message(src, Address("10.0.0.100", 7777),
                                   b"x" * 16, proto=UDP))
    env.run(until=100 + n_messages * 600.0 + 2000.0)
    admitted = server.requests.count
    assert admitted == service.delivered + service.dropped
    # nothing invented: admitted <= offered
    assert admitted <= n_messages
