#!/usr/bin/env python3
"""Composing accelerators: a two-stage inference pipeline.

The paper closes by calling Lynx "a stepping stone for ... efficient
composition of accelerators" (§8).  This example builds that: a
denoising stage on GPU 0 feeds a LeNet classification stage on GPU 1
through the SNIC (client mqueues hairpinning through the switch), with
the host CPU idle throughout.

    client --UDP--> [GPU0: denoise] --mqueue--> [GPU1: LeNet] --> client

The denoiser is a real 3x3 box filter; classification accuracy on noisy
digits improves measurably versus sending them straight to LeNet.

Run:  python examples/accelerator_pipeline.py
"""

import numpy as np

from repro import Testbed, LeNetApp
from repro.apps.base import ServerApp
from repro.apps.lenet import MnistStream
from repro.lynx import PipelineStage
from repro.net import Address
from repro.net.packet import UDP


class DenoiseApp(ServerApp):
    """3x3 box filter over the 28x28 image (real numpy)."""

    name = "denoise"
    gpu_duration = 40.0  # small stencil kernel

    def compute(self, payload):
        img = np.frombuffer(bytes(payload), dtype=np.uint8)
        img = img.reshape(28, 28).astype(np.float32)
        padded = np.pad(img, 1, mode="edge")
        out = np.zeros_like(img)
        for dy in range(3):
            for dx in range(3):
                out += padded[dy:dy + 28, dx:dx + 28]
        return (out / 9.0).astype(np.uint8).tobytes()


def classify_batch(tb, env, address, app, stream, n):
    client = tb.client("10.0.1.%d" % (len(tb.clients) + 1))
    outcomes = []

    def drive(env):
        for i in range(n):
            image, label = stream.sample(i)
            response = yield from client.request(image, address, proto=UDP)
            outcomes.append(label == app.decode_response(response.payload))

    env.process(drive(env))
    env.run(until=env.now + n * 3000.0)
    return sum(outcomes), len(outcomes)


def denoised_lenet():
    """A LeNet calibrated on what the denoise stage actually emits."""
    from repro.apps.lenet import template_set

    denoiser = DenoiseApp()
    templates = {}
    for digit, images in template_set().items():
        templates[digit] = [
            np.frombuffer(denoiser.compute(np.asarray(img).tobytes()),
                          dtype=np.uint8).reshape(28, 28)
            for img in images
        ]
    app = LeNetApp(calibrated=False)
    app.model.calibrate_to_templates(templates)
    return app


def main():
    noisy_stream = MnistStream(seed=8, noise=0.35)  # heavily degraded

    # -- pipeline: denoise -> classify -----------------------------------
    tb = Testbed(seed=3)
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpu0, gpu1 = host.add_gpu(), host.add_gpu()
    snic = tb.bluefield("10.0.0.100")
    runtime, server = tb.lynx_on_bluefield(snic)
    lenet = denoised_lenet()
    proc = env.process(runtime.start_pipeline(
        [PipelineStage(gpu0, DenoiseApp()), PipelineStage(gpu1, lenet)],
        port=7000))
    env.run(until=30_000)
    pipe = proc.value
    good, total = classify_batch(tb, env, Address("10.0.0.100", 7000),
                                 lenet, noisy_stream, 40)
    print("denoise->LeNet pipeline:  %d/%d noisy digits correct" %
          (good, total))
    busy = max((pool.utilization for pool in host.socket.pools),
               default=0.0)
    print("  stages: %d, relay errors: %d, host CPU: %.0f%%"
          % (pipe.depth, pipe.relay_errors, 100 * busy))

    # -- baseline: LeNet alone on the same noisy stream -------------------
    tb2 = Testbed(seed=3)
    host2 = tb2.machine("10.0.0.1")
    gpu = host2.add_gpu()
    snic2 = tb2.bluefield("10.0.0.100")
    runtime2, _ = tb2.lynx_on_bluefield(snic2)
    lenet2 = LeNetApp()
    tb2.env.process(runtime2.start_gpu_service(gpu, lenet2, port=7000))
    tb2.run(until=30_000)
    noisy_stream2 = MnistStream(seed=8, noise=0.35)
    good2, total2 = classify_batch(tb2, tb2.env,
                                   Address("10.0.0.100", 7000), lenet2,
                                   noisy_stream2, 40)
    print("LeNet alone:              %d/%d noisy digits correct"
          % (good2, total2))


if __name__ == "__main__":
    main()
