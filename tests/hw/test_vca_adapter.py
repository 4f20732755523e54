"""VCA nodes as first-class Lynx accelerators (§5.4 portability)."""

from repro import Testbed
from repro.apps.base import EchoApp
from repro.apps.sgx_echo import SgxEchoApp
from repro.hw import VcaNodeAccelerator
from repro.net import Address
from repro.net.packet import UDP


def build(app):
    tb = Testbed()
    env = tb.env
    tb.machine("10.0.0.1")
    vca = tb.vca()
    snic = tb.bluefield("10.0.0.100")
    runtime, server = tb.lynx_on_bluefield(snic)
    accel = VcaNodeAccelerator(vca.nodes[0])
    proc = env.process(runtime.start_gpu_service(
        accel, app, port=9000, n_mqueues=2))
    env.run(until=500)
    return tb, env, server, proc.value, Address("10.0.0.100", 9000)


class TestSameRuntimeApi:
    def test_echo_service_on_vca_node(self):
        tb, env, server, service, addr = build(EchoApp())
        client = tb.client("10.0.1.1")
        results = []

        def drive(env):
            for i in range(6):
                r = yield from client.request(b"v%d" % i, addr, proto=UDP)
                results.append(bytes(r.payload))

        env.process(drive(env))
        env.run(until=50000)
        assert results == [b"v%d" % i for i in range(6)]

    def test_real_enclave_crypto_through_generic_api(self):
        # E08's Lynx path: the SGX echo app on the generic runtime.
        app = SgxEchoApp()
        tb, env, server, service, addr = build(app)
        client = tb.client("10.0.1.1")
        answers = []

        def drive(env):
            ct = app.encrypt_value(6)
            r = yield from client.request(ct, addr, proto=UDP)
            answers.append(app.decrypt_value(r.payload))

        env.process(drive(env))
        env.run(until=50000)
        assert answers == [42]
        assert service.gpu.node.enclave_calls == 1

    def test_dynamic_parallelism_app_on_vca_node(self):
        # Regression: a stock app with dynamic parallelism runs its
        # child launch through the adapter (VCA nodes have no GPU
        # profile to take a device-launch latency from).
        app = EchoApp()
        app.gpu_duration = 3.0
        app.use_dynamic_parallelism = True
        tb, env, server, service, addr = build(app)
        client = tb.client("10.0.1.1")
        results = []

        def drive(env):
            r = yield from client.request(b"dp", addr, proto=UDP)
            results.append(bytes(r.payload))

        env.process(drive(env))
        env.run(until=50000)
        assert results == [b"dp"]

    def test_mqueues_live_in_host_memory_per_workaround(self):
        tb, env, server, service, addr = build(EchoApp())
        for mq in service.mqueues:
            assert "mqueue-mem" in mq.memory.name

    def test_poll_latency_includes_pcie_crossing(self):
        tb = Testbed()
        tb.machine("10.0.0.1")
        vca = tb.vca()
        accel = VcaNodeAccelerator(vca.nodes[0])
        assert accel.poll_latency > 1.0  # PCIe + poll overhead
