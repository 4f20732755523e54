"""Lynx: the paper's core contribution.

The SNIC-resident generic network server (:class:`LynxServer`), the
mqueue abstraction, RDMA-backed remote queue management, the
accelerator-side I/O shim, and the host-side runtime that wires a
service together.
"""

from .mqueue import MQueue, MQueueEntry, SERVER, CLIENT, METADATA_BYTES
from .dispatch import (
    DispatchPolicy,
    RoundRobin,
    LeastLoaded,
    ClientSteering,
    make_policy,
)
from .rmq import RemoteMQManager
from .server import LynxServer
from .iolib import AcceleratorIO
from .runtime import LynxRuntime, AppContext, GpuService

__all__ = [
    "MQueue",
    "MQueueEntry",
    "SERVER",
    "CLIENT",
    "METADATA_BYTES",
    "DispatchPolicy",
    "RoundRobin",
    "LeastLoaded",
    "ClientSteering",
    "make_policy",
    "RemoteMQManager",
    "LynxServer",
    "AcceleratorIO",
    "LynxRuntime",
    "AppContext",
    "GpuService",
]
