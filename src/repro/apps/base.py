"""Application model shared by Lynx and the host-centric baseline.

A :class:`ServerApp` separates the two things a request costs:

* :meth:`compute` — the *real* computation, executed in Python so the
  response payload is genuine (tests verify end-to-end integrity);
* :attr:`gpu_duration` — the simulated time the kernel occupies the
  accelerator (calibrated from the paper, see
  :class:`repro.config.AppTimings`).

``handle`` is the accelerator-resident coroutine used by Lynx's
persistent-kernel service loop; apps with backend I/O (Face
Verification) override it.
"""

from ..errors import ConfigError


class ServerApp:
    """Base class for accelerated server applications."""

    #: short identifier (used in process names and stats)
    name = "app"
    #: simulated kernel duration per request, in K40m microseconds
    gpu_duration = 0.0
    #: launch per-request work as a device-side child kernel (§6.3)
    use_dynamic_parallelism = False

    def compute(self, payload):
        """The real computation: payload in, response payload out."""
        raise NotImplementedError

    def handle(self, ctx, entry):
        """Generator: process one request inside the accelerator."""
        result = self.compute(entry.payload)
        yield from ctx.compute(self.gpu_duration,
                               self.use_dynamic_parallelism)
        return result

    def handle_host(self, ctx, msg):
        """Generator: process one request in the host-centric baseline."""
        from ..baseline.host_centric import default_handle_host

        return (yield from default_handle_host(self, ctx, msg))


class EchoApp(ServerApp):
    """The §3.2 microbenchmark kernel: copy input to output."""

    name = "echo"
    gpu_duration = 0.0

    def compute(self, payload):
        return payload


class SpinApp(ServerApp):
    """Fig 6/7/8c emulation kernel: a single thread that blocks for a
    predefined request runtime; the response is a 4-byte status."""

    name = "spin"

    def __init__(self, runtime_us):
        if runtime_us < 0:
            raise ConfigError("negative runtime")
        self.gpu_duration = runtime_us

    def compute(self, payload):
        return b"ok!\x00"
