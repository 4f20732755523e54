"""Discrete-event simulation kernel (microsecond-resolution).

Public surface::

    env = Environment()
    def proc(env):
        yield env.timeout(5.0)
        return 42
    p = env.process(proc(env))
    env.run()

"""

from .environment import Environment
from .events import (
    Event,
    Timeout,
    Process,
    Task,
    Interrupt,
    Condition,
    all_of,
    any_of,
    URGENT,
    NORMAL,
)
from .resources import Resource, Request
from .store import Store
from .channel import Channel
from .rng import RngRegistry
from .stats import LatencyRecorder, RateMeter, TimeWeightedGauge
from .trace import Tracer, NullTracer

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Task",
    "Interrupt",
    "Condition",
    "all_of",
    "any_of",
    "URGENT",
    "NORMAL",
    "Resource",
    "Request",
    "Store",
    "Channel",
    "RngRegistry",
    "LatencyRecorder",
    "RateMeter",
    "TimeWeightedGauge",
    "Tracer",
    "NullTracer",
]
