"""k-NN service application."""

import numpy as np
import pytest

from repro.apps.knn import (
    DEFAULT_K,
    DIM,
    KnnApp,
    KnnDataset,
    decode_query,
    decode_result,
    encode_query,
    encode_result,
)
from repro.errors import ConfigError


class TestWireFormat:
    def test_query_roundtrip(self):
        vec = np.arange(DIM, dtype=np.float32)
        assert np.array_equal(decode_query(encode_query(vec)), vec)

    def test_query_is_256_bytes(self):
        assert len(encode_query(np.zeros(DIM, dtype=np.float32))) == 256

    def test_wrong_dim_rejected(self):
        with pytest.raises(ConfigError):
            encode_query(np.zeros(10, dtype=np.float32))

    def test_result_roundtrip(self):
        payload = encode_result([3, 1], [0.5, 2.25])
        assert decode_result(payload) == [(3, 0.5), (1, 2.25)]


class TestDataset:
    def test_exact_match_is_its_own_neighbour(self):
        ds = KnnDataset(size=256)
        for i in (0, 17, 255):
            indices, distances = ds.query(ds.vectors[i], k=1)
            assert indices[0] == i
            # float32 norm-trick cancellation leaves a little residue
            assert distances[0] == pytest.approx(0.0, abs=1e-2)

    def test_matches_naive_topk(self):
        ds = KnnDataset(size=128)
        rng = np.random.default_rng(5)
        query = rng.standard_normal(DIM).astype(np.float32)
        indices, distances = ds.query(query, k=5)
        naive = np.argsort(np.linalg.norm(ds.vectors - query, axis=1))[:5]
        assert list(indices) == list(naive)
        assert list(distances) == sorted(distances)

    def test_sample_query_finds_its_base(self):
        ds = KnnDataset(size=512)
        for i in (3, 99):
            indices, _ = ds.query(ds.sample_query(i), k=1)
            assert indices[0] == i

    def test_deterministic(self):
        a = KnnDataset(size=64)
        b = KnnDataset(size=64)
        assert np.array_equal(a.vectors, b.vectors)


class TestApp:
    def test_compute_encodes_topk(self):
        ds = KnnDataset(size=128)
        app = KnnApp(dataset=ds)
        payload = encode_query(ds.sample_query(7))
        pairs = decode_result(app.compute(payload))
        assert len(pairs) == DEFAULT_K
        assert pairs[0][0] == 7

    def test_duration_scales_with_dataset(self):
        small = KnnApp(dataset=KnnDataset(size=1000))
        large = KnnApp(dataset=KnnDataset(size=4000))
        assert large.gpu_duration == pytest.approx(4 * small.gpu_duration)


class TestEndToEnd:
    def test_multi_gpu_service_returns_correct_neighbours(self):
        from repro import Testbed
        from repro.net import Address
        from repro.net.packet import UDP

        tb = Testbed()
        env = tb.env
        host = tb.machine("10.0.0.1")
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        ds = KnnDataset(size=512)
        app = KnnApp(dataset=ds)
        for _ in range(2):  # two GPUs behind one port
            gpu = host.add_gpu()
            env.process(runtime.start_gpu_service(gpu, app, port=7000,
                                                  n_mqueues=1))
        env.run(until=200)
        client = tb.client("10.0.1.1")
        hits = []

        def drive(env):
            for i in range(8):
                payload = encode_query(ds.sample_query(i))
                response = yield from client.request(
                    payload, Address("10.0.0.100", 7000), proto=UDP)
                pairs = decode_result(response.payload)
                hits.append(pairs[0][0] == i)

        env.process(drive(env))
        env.run(until=100000)
        assert hits and all(hits)
