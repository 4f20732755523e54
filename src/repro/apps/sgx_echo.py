"""The Intel VCA secure-computation server (§6.2 "Integration with the
Intel VCA").

A client sends a 4-byte AES-encrypted integer; the enclave decrypts it,
multiplies by a constant, re-encrypts, and replies.  SGX keeps the key
inside the enclave.  Crypto is real (:mod:`repro.apps.crypto.aes`).

Two deployments:

* the Lynx path — :class:`SgxEchoApp` is an ordinary
  :class:`~repro.apps.base.ServerApp`, served by
  ``LynxRuntime.start_gpu_service`` on a
  :class:`~repro.hw.vca.VcaNodeAccelerator`: the tiny I/O library is
  statically linked into the enclave; the node polls an mqueue (in host
  memory, per the paper's RDMA-into-VCA workaround) and never touches a
  network stack.
* :class:`VcaBridgeBaseline` — Intel's stock path: the node's Linux
  stack behind the host's IP-over-PCIe network bridge, one enclave
  ecall per request.
"""

import struct

from ..config import DEFAULT_APP_TIMINGS, XEON_KERNEL
from ..errors import ConfigError
from ..net.stack import NetworkStack
from ..sim import RateMeter
from .base import ServerApp
from .crypto.aes import AES128

MULTIPLIER = 7


class SgxEchoApp(ServerApp):
    """The enclave logic: decrypt -> multiply -> encrypt."""

    name = "sgx-echo"

    def __init__(self, key=b"lynx-enclave-key", multiplier=MULTIPLIER):
        if len(key) != 16:
            raise ConfigError("AES-128 key must be 16 bytes")
        self._cipher = AES128(key)
        self.multiplier = multiplier
        #: enclave compute time per request (AES + multiply), in E3 us
        self.compute_us = 2 * DEFAULT_APP_TIMINGS.sgx_aes_block + 0.5

    def encrypt_value(self, value):
        """Client-side helper: encrypt a 4-byte integer."""
        return self._cipher.encrypt(struct.pack("<i", value))

    def decrypt_value(self, ciphertext):
        return struct.unpack("<i", self._cipher.decrypt(bytes(ciphertext)))[0]

    def process(self, ciphertext):
        """What runs inside the enclave (real crypto)."""
        value = self.decrypt_value(ciphertext)
        return self._cipher.encrypt(struct.pack("<i", value * self.multiplier))

    def handle(self, ctx, entry):
        """Generator: serve one request on a VCA node (``ctx.gpu`` is its
        :class:`~repro.hw.vca.VcaNodeAccelerator`).

        The Lynx I/O library is statically linked into the TCB, so one
        enclave activation covers I/O and compute (§6.2).
        """
        result = self.process(entry.payload)
        yield from ctx.gpu.node.enclave_call(self.compute_us)
        return result


class VcaBridgeBaseline:
    """Intel's preferred path: host bridge + node Linux stack + per-
    request enclave invocation."""

    def __init__(self, env, host_machine, node, app, port):
        self.env = env
        self.machine = host_machine
        self.node = node
        self.app = app
        self.port = port
        self.name = "%s-bridge-sgx" % node.name
        # the host forwards bridge traffic with a (kernel) stack core
        self.host_pool = host_machine.pool(count=1,
                                           name="%s-bridge" % self.name)
        self.host_stack = NetworkStack(env, self.host_pool, XEON_KERNEL,
                                       name="%s-hstack" % self.name)
        self.node_stack = NetworkStack(env, node.pool, node.vca.profile.stack,
                                       name="%s-nstack" % self.name)
        self.node_stack.listen(port)
        self.served = RateMeter(env, name="%s-served" % self.name)
        env.process(self._loop(), name=self.name)

    def _loop(self):
        nic = self.machine.nic
        bridge = self.node.vca.profile.bridge_latency
        while True:
            msg = yield nic.recv()
            if msg.dst.port != self.port:
                continue
            # host side: kernel stack + bridge forwarding into the card
            yield from self.host_stack.process_rx(msg)
            yield self.env.timeout(bridge)
            # node side: its own Linux stack, then the enclave ecall
            yield from self.node_stack.process_rx(msg)
            # baseline pays an extra enclave transition for marshalling
            # the request buffer in and out of the untrusted runtime
            yield self.env.timeout(self.node.vca.profile.enclave_transition)
            result = self.app.process(msg.payload)
            yield from self.node.enclave_call(self.app.compute_us)
            response = msg.reply(result, created_at=self.env.now)
            yield from self.node_stack.process_tx(response)
            yield self.env.timeout(bridge)
            yield from self.host_stack.process_tx(response)
            self.served.tick()
            yield from nic.send(response)
