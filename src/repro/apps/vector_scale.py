"""The §3.2 noisy-neighbour victim: multiply a vector by a constant.

Each request carries 256 int32 values; the server returns the scaled
vector.  The GPU kernel is trivial, so end-to-end latency is dominated
by the CPU-side serving path — exactly what makes it sensitive to LLC
interference in the host-centric design.
"""

import numpy as np

from ..errors import ConfigError
from .base import ServerApp

VECTOR_LEN = 256
SCALE = 3


def encode_vector(values):
    arr = np.asarray(values, dtype=np.int32)
    if arr.size != VECTOR_LEN:
        raise ConfigError("vector must have %d elements" % VECTOR_LEN)
    return arr.tobytes()


def decode_vector(payload):
    return np.frombuffer(bytes(payload), dtype=np.int32)


class VectorScaleApp(ServerApp):
    """Multiply the input vector by a constant (real numpy math)."""

    name = "vector-scale"
    #: the kernel itself is tiny
    gpu_duration = 3.0

    def compute(self, payload):
        vec = decode_vector(payload)
        return (vec * SCALE).astype(np.int32).tobytes()


class MatrixProductAggressor:
    """The §3.2 noisy neighbour: 1140x1140 int matmul filling the LLC.

    Runs repeatedly on dedicated host cores, occupying a working set
    that (together with the victim) overflows the 15MB LLC.  The matmul
    itself slows ~21% under contention — tracked for the experiment.
    """

    #: 1140 x 1140 x 4B x 3 matrices ~ 15.6MB: fills the Xeon LLC
    WORKING_SET = 3 * 1140 * 1140 * 4
    #: one product takes ~230ms on a Xeon core; we slice it into
    #: scheduler-friendly chunks of simulated compute
    DURATION_XEON_US = 230000.0
    CHUNK_US = 200.0

    def __init__(self, env, pool):
        self.env = env
        self.pool = pool
        self.completed = 0
        self.total_busy = 0.0
        self._proc = env.process(self._run(), name="matmul-aggressor")

    def _run(self):
        chunks = int(self.DURATION_XEON_US / self.CHUNK_US)
        while True:
            start = self.env.now
            for _ in range(chunks):
                yield from self.pool.run_compute(
                    self.CHUNK_US, working_set=self.WORKING_SET,
                    aggressor=True)
            self.completed += 1
            self.total_busy += self.env.now - start

    def mean_product_time(self):
        """Average time per completed matrix product (us)."""
        if not self.completed:
            return float("nan")
        return self.total_busy / self.completed
