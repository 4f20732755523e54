"""Hardware substrate: CPUs, caches, NICs, GPUs, SmartNICs, VCA."""

from .memory import MemoryRegion, HOST_DRAM_LATENCY, GPU_GDDR_LATENCY, SNIC_DRAM_LATENCY
from .cache import LLCModel
from .cpu import CorePool, CpuSocket
from .nic import Nic, RdmaNic
from .gpu import GPU, CudaDriver
from .smartnic import BluefieldSNIC, InnovaSNIC
from .vca import IntelVCA, VcaNode, VcaNodeAccelerator
from .machine import Machine

__all__ = [
    "MemoryRegion",
    "HOST_DRAM_LATENCY",
    "GPU_GDDR_LATENCY",
    "SNIC_DRAM_LATENCY",
    "LLCModel",
    "CorePool",
    "CpuSocket",
    "Nic",
    "RdmaNic",
    "GPU",
    "CudaDriver",
    "BluefieldSNIC",
    "InnovaSNIC",
    "IntelVCA",
    "VcaNode",
    "VcaNodeAccelerator",
    "Machine",
]
