"""Application workloads from the paper's evaluation (§6)."""

from .base import EchoApp, ServerApp, SpinApp
from .vector_scale import (
    MatrixProductAggressor,
    VectorScaleApp,
    decode_vector,
    encode_vector,
)
from .memcached import (
    KeyValueStore,
    MemcachedServer,
    encode_get,
    encode_set,
    MISS,
    STORED,
)
from .sgx_echo import SgxEchoApp, VcaBridgeBaseline
from .lenet import LeNetApp
from .facever import FaceVerificationApp

__all__ = [
    "ServerApp",
    "EchoApp",
    "SpinApp",
    "VectorScaleApp",
    "MatrixProductAggressor",
    "encode_vector",
    "decode_vector",
    "KeyValueStore",
    "MemcachedServer",
    "encode_get",
    "encode_set",
    "MISS",
    "STORED",
    "SgxEchoApp",
    "VcaBridgeBaseline",
    "LeNetApp",
    "FaceVerificationApp",
]
