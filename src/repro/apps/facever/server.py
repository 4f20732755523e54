"""The Face Verification server application (§6.4).

Request: 12-byte person label + a 1024-byte probe photo.
The server fetches the person's reference photo from the memcached
backend (over a client mqueue on Lynx; over the host stack in the
baseline), runs LBP verification on the GPU, and returns the result.

The Lynx version runs *entirely* on the accelerator: the persistent
kernel issues the memcached GET through its client mqueue mid-request —
the paper's showcase of accelerator-side networking.
"""

import struct

from ...config import DEFAULT_APP_TIMINGS
from ...errors import ConfigError
from ..base import ServerApp
from ..memcached import encode_get, MISS
from .lbp import DEFAULT_THRESHOLD, chi_square, lbp_histogram

LABEL_BYTES = 12
BACKEND = "facedb"


def encode_request(label, probe_image):
    """Build the wire payload: label + probe photo."""
    label = bytes(label)
    if len(label) != LABEL_BYTES:
        raise ConfigError("labels are %d bytes, got %d" % (LABEL_BYTES, len(label)))
    return label + bytes(probe_image)


def decode_request(payload):
    payload = bytes(payload)
    return payload[:LABEL_BYTES], payload[LABEL_BYTES:]


def encode_result(is_same, distance):
    return struct.pack("<if", int(is_same), float(distance))


def decode_result(payload):
    is_same, distance = struct.unpack("<if", bytes(payload))
    return bool(is_same), distance


class FaceVerificationApp(ServerApp):
    """GPU LBP face verification with a memcached photo database."""

    name = "facever"
    #: the LBP compare kernel runs "about 50us" (§6.4)
    use_dynamic_parallelism = False

    def __init__(self, compute_for_real=True):
        self.gpu_duration = DEFAULT_APP_TIMINGS.facever_gpu
        self.threshold = DEFAULT_THRESHOLD
        self.compute_for_real = compute_for_real
        self.verified = 0
        self.rejected = 0
        self.misses = 0
        self.backend_errors = 0

    # -- pure compare (shared by both designs) -------------------------------

    def compare(self, probe, reference):
        if not self.compute_for_real:
            return encode_result(True, 0.0)
        dist = chi_square(lbp_histogram(probe), lbp_histogram(reference))
        same = dist <= self.threshold
        if same:
            self.verified += 1
        else:
            self.rejected += 1
        return encode_result(same, dist)

    def compute(self, payload):  # pragma: no cover - not used directly
        raise ConfigError("FaceVerificationApp needs its backend-aware "
                          "handlers, not bare compute()")

    # -- Lynx: everything on the accelerator ------------------------------------

    def handle(self, ctx, entry):
        label, probe = decode_request(entry.payload)
        reply = yield from ctx.call(BACKEND, encode_get(label))
        if reply.error:
            # the SNIC flagged a backend connection error / timeout in
            # the mqueue metadata (§5.1) — fail the request cleanly
            self.backend_errors += 1
            return encode_result(False, float("inf"))
        reference = bytes(reply.payload)
        if reference == MISS:
            self.misses += 1
            return encode_result(False, float("inf"))
        result = self.compare(probe, reference)
        yield from ctx.compute(self.gpu_duration,
                               self.use_dynamic_parallelism)
        return result

    # -- host-centric: CPU fetches, then launches the compare kernel -----------

    def handle_host(self, ctx, msg):
        label, probe = decode_request(msg.payload)
        reply = yield from ctx.backend_call(BACKEND, encode_get(label))
        reference = bytes(reply.payload)
        if reference == MISS:
            self.misses += 1
            return encode_result(False, float("inf"))
        result = self.compare(probe, reference)
        # H2D: probe + reference; D2H: the 8-byte result.  The baseline
        # (as in prior GPUnet-style servers) drives the GPU with
        # synchronous copies and a per-request device sync, so the CPU
        # blocks for the whole leg — §6.4's "overhead of kernel
        # invocation and GPU data transfers is high vs the 50us kernel".
        yield from ctx.gpu_pipeline_blocking(len(probe) + len(reference), 8,
                                             self.gpu_duration)
        return result
