"""Vector-scale, echo/spin, and SGX echo applications."""

import numpy as np
import pytest

from repro import Testbed
from repro.apps.base import EchoApp, SpinApp
from repro.apps.sgx_echo import SgxEchoApp, VcaBridgeBaseline
from repro.apps.vector_scale import (
    MatrixProductAggressor,
    VectorScaleApp,
    decode_vector,
    encode_vector,
)
from repro.errors import ConfigError


class TestVectorScale:
    def test_scales_by_constant(self):
        app = VectorScaleApp()
        vec = np.arange(256, dtype=np.int32)
        out = decode_vector(app.compute(encode_vector(vec)))
        assert np.array_equal(out, vec * 3)

    def test_payload_is_1024_bytes(self):
        assert len(encode_vector(np.zeros(256, dtype=np.int32))) == 1024

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError):
            encode_vector(np.zeros(10, dtype=np.int32))


class TestAggressor:
    def test_occupies_llc_and_completes_products(self):
        tb = Testbed()
        host = tb.machine("10.0.0.1")
        pool = host.pool(count=2, name="aggr")
        aggressor = MatrixProductAggressor(tb.env, pool)
        tb.run(until=600000)
        assert aggressor.completed >= 2
        assert aggressor.mean_product_time() >= aggressor.DURATION_XEON_US

    def test_working_set_fills_xeon_llc(self):
        # §3.2: the 1140x1140 matrices "fully occupy" the 15MB LLC, so
        # any co-running working set pushes the socket into thrashing.
        assert MatrixProductAggressor.WORKING_SET > 0.95 * 15 * 1024 * 1024


class TestEchoApps:
    def test_echo_returns_payload(self):
        assert EchoApp().compute(b"abc") == b"abc"

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            SpinApp(-5)

    def test_spin_returns_fixed_response(self):
        assert SpinApp(10.0).compute(b"whatever") == b"ok!\x00"


class TestSgxEcho:
    def test_enclave_computation_is_real_crypto(self):
        app = SgxEchoApp()
        ct = app.encrypt_value(6)
        out = app.process(ct)
        assert app.decrypt_value(out) == 42

    def test_key_must_be_16_bytes(self):
        with pytest.raises(ConfigError):
            SgxEchoApp(key=b"short")

    def test_lynx_vs_bridge_latency_gap(self):
        """§6.2: the Lynx path is several times faster than the bridge."""
        from repro.hw import VcaNodeAccelerator
        from repro.net import Address, ClosedLoopGenerator
        from repro.net.packet import UDP

        # --- Lynx path: the generic runtime on the VCA adapter ---
        tb = Testbed()
        env = tb.env
        tb.machine("10.0.0.1")
        vca = tb.vca()
        snic = tb.bluefield("10.0.0.100")
        runtime, _server = tb.lynx_on_bluefield(snic)
        app = SgxEchoApp()
        env.process(runtime.start_gpu_service(
            VcaNodeAccelerator(vca.nodes[0]), app, port=9000))
        client = tb.client("10.0.1.1")
        payload = app.encrypt_value(5)
        ClosedLoopGenerator(env, client, Address("10.0.0.100", 9000),
                            concurrency=1, payload_fn=lambda i: payload,
                            proto=UDP)
        tb.warmup_then_measure([client.latency], 5000, 30000)
        lynx_p90 = client.latency.p90()

        # --- bridge baseline ---
        tb2 = Testbed()
        host2 = tb2.machine("10.0.0.1")
        vca2 = tb2.vca()
        VcaBridgeBaseline(tb2.env, host2, vca2.nodes[0], app, port=9000)
        client2 = tb2.client("10.0.1.1")
        ClosedLoopGenerator(tb2.env, client2, Address("10.0.0.1", 9000),
                            concurrency=1, payload_fn=lambda i: payload,
                            proto=UDP)
        tb2.warmup_then_measure([client2.latency], 5000, 30000)
        bridge_p90 = client2.latency.p90()

        assert lynx_p90 < bridge_p90 / 2.5
