"""Network substrate: messages, fabric, transport stacks, RDMA, clients."""

from .packet import Address, Message, UDP, TCP, payload_size
from .network import MultiRackNetwork, Network
from .stack import NetworkStack, TcpConnection
from .cluster import ConsistentHashRing, L4LoadBalancer, STEER_POLICIES, \
    extract_key, shard_preload
from .rdma import RdmaEngine, QueuePair
from .client import Client, OpenLoopGenerator, ClosedLoopGenerator
from .population import (
    ClientPopulation,
    InFlightTable,
    OnOffPopulation,
    PayloadPool,
    PoissonPopulation,
    PopulationArrivals,
)

__all__ = [
    "Address",
    "Message",
    "UDP",
    "TCP",
    "payload_size",
    "Network",
    "MultiRackNetwork",
    "ConsistentHashRing",
    "L4LoadBalancer",
    "STEER_POLICIES",
    "extract_key",
    "shard_preload",
    "NetworkStack",
    "TcpConnection",
    "RdmaEngine",
    "QueuePair",
    "Client",
    "OpenLoopGenerator",
    "ClosedLoopGenerator",
    "ClientPopulation",
    "PopulationArrivals",
    "PoissonPopulation",
    "OnOffPopulation",
    "PayloadPool",
    "InFlightTable",
]
