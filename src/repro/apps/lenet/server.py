"""The LeNet model-serving application (§6.3).

Requests are 784-byte images; the response is the recognized digit.
On Lynx, the persistent kernel's polling thread launches the actual
inference kernels through dynamic parallelism — faithfully mirrored by
``use_dynamic_parallelism``.
"""

import struct

from ...config import DEFAULT_APP_TIMINGS
from ..base import ServerApp
from .mnist import template_set
from .model import LeNet5


#: seed -> calibrated (fc3_w, fc3_b).  Calibration is a pure function
#: of the weight seed and the default template set, and experiments
#: build a fresh LeNetApp per measured design — without the cache each
#: run pays 90 numpy forward passes for bit-identical weights.
_CALIBRATION_CACHE = {}

#: seed of the LeNet weights every server loads
WEIGHT_SEED = 1998


class LeNetApp(ServerApp):
    """GPU LeNet inference server application."""

    name = "lenet"
    use_dynamic_parallelism = True
    #: the TVM-generated host-centric code issues one launch per fused
    #: layer group; on Lynx the whole network is one device-side child
    #: launch chain (§6.3)
    host_kernel_launches = 5

    def __init__(self, compute_for_real=True):
        self.gpu_duration = DEFAULT_APP_TIMINGS.lenet_gpu
        self.model = LeNet5(seed=WEIGHT_SEED)
        cached = _CALIBRATION_CACHE.get(WEIGHT_SEED)
        if cached is None:
            self.model.calibrate_to_templates(template_set())
            _CALIBRATION_CACHE[WEIGHT_SEED] = (
                self.model.fc3_w.copy(), self.model.fc3_b.copy())
        else:
            # calibrate_to_templates only rewrites the fc3 readout.
            self.model.fc3_w = cached[0].copy()
            self.model.fc3_b = cached[1].copy()
        #: throughput experiments can skip the numpy forward pass (the
        #: simulated timing is unchanged; the response becomes digit 0)
        self.compute_for_real = compute_for_real

    def handle_host(self, ctx, msg):
        """Host-centric LeNet: H2D, a launch per layer group, D2H.

        The TVM-generated layer kernels are grid-sized (they fill the
        GPU), so kernels of concurrent requests serialize — which is why
        the paper's host-centric LeNet (2.8 Kreq/s) lands *below* the
        3.6 Kreq/s serial single-GPU maximum.
        """
        result = self.compute(msg.payload)
        yield from ctx.gpu.memcpy_async(ctx.pool, msg.size)
        per_launch = self.gpu_duration / self.host_kernel_launches
        yield from ctx.gpu.run_kernel_chain(
            ctx.pool, [per_launch] * self.host_kernel_launches)
        yield from ctx.gpu.memcpy_async(ctx.pool, len(result))
        return result

    def compute(self, payload):
        """Classify the image; the response is a 4-byte digit."""
        if not self.compute_for_real:
            return struct.pack("<i", 0)
        digit = self.model.classify(payload)
        return struct.pack("<i", digit)

    @staticmethod
    def decode_response(payload):
        """Digit encoded in a response payload."""
        return struct.unpack("<i", bytes(payload))[0]
