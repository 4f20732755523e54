"""A k-nearest-neighbour search service (multi-GPU workload).

The paper motivates Lynx with multi-GPU network services and cites
k-NN serving (Centaur [50]) as the workload whose scaling is wrecked by
kernel-invocation overheads.  This app serves real brute-force k-NN:
each GPU holds a replica of a seeded vector dataset; queries are 256B
vectors; responses carry the top-k (index, distance) pairs, computed
with numpy for real so end-to-end correctness is testable.

Deployed behind Lynx, queries fan out over per-GPU mqueues with zero
host-CPU involvement — the Figure 8b pattern applied to a second
workload.
"""

import struct

import numpy as np

from ..errors import ConfigError
from .base import ServerApp

DIM = 64
DEFAULT_K = 4
DEFAULT_DATASET = 4096


def encode_query(vector):
    arr = np.asarray(vector, dtype=np.float32)
    if arr.shape != (DIM,):
        raise ConfigError("queries are %d-dim float32 vectors" % DIM)
    return arr.tobytes()


def decode_query(payload):
    return np.frombuffer(bytes(payload), dtype=np.float32)


def encode_result(indices, distances):
    out = bytearray(struct.pack("<i", len(indices)))
    for idx, dist in zip(indices, distances):
        out.extend(struct.pack("<if", int(idx), float(dist)))
    return bytes(out)


def decode_result(payload):
    payload = bytes(payload)
    (count,) = struct.unpack_from("<i", payload, 0)
    pairs = []
    for i in range(count):
        idx, dist = struct.unpack_from("<if", payload, 4 + 8 * i)
        pairs.append((idx, dist))
    return pairs


class KnnDataset:
    """A seeded, replicated vector dataset."""

    def __init__(self, size=DEFAULT_DATASET):
        rng = np.random.default_rng(77)
        self.vectors = rng.standard_normal((size, DIM)).astype(np.float32)
        #: precomputed squared norms for the distance kernel
        self._norms = np.einsum("ij,ij->i", self.vectors, self.vectors)

    def __len__(self):
        return len(self.vectors)

    def query(self, vector, k=DEFAULT_K):
        """Exact top-k by L2 distance; returns (indices, distances)."""
        v = np.asarray(vector, dtype=np.float32)
        dists = self._norms - 2.0 * (self.vectors @ v) + float(v @ v)
        np.maximum(dists, 0.0, out=dists)
        top = np.argpartition(dists, k)[:k]
        order = top[np.argsort(dists[top])]
        return order, np.sqrt(dists[order])

    def sample_query(self, index, noise=0.05):
        """A query near dataset vector *index* (its own nearest hit)."""
        rng = np.random.default_rng(1000 + index)
        base = self.vectors[index % len(self.vectors)]
        return base + rng.standard_normal(DIM).astype(np.float32) * noise


class KnnApp(ServerApp):
    """Brute-force k-NN serving on GPUs."""

    name = "knn"
    use_dynamic_parallelism = True

    def __init__(self, dataset=None, compute_for_real=True):
        self.dataset = dataset or KnnDataset()
        self.k = DEFAULT_K
        self.compute_for_real = compute_for_real
        # Brute-force distance kernel time on a K40m: the dataset scan
        # is memory-bound; ~0.12us per vector at DIM=64.
        self.gpu_duration = 0.12 * len(self.dataset)

    def compute(self, payload):
        if not self.compute_for_real:
            return encode_result([0] * self.k, [0.0] * self.k)
        query = decode_query(payload)
        indices, distances = self.dataset.query(query, self.k)
        return encode_result(indices, distances)
