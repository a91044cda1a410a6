"""Discrete-event simulation kernel (substrate).

Provides the deterministic event loop, timers/actors, seeded randomness
streams, and structured tracing that every other layer builds on.
"""

from .kernel import EventHandle, SimulationError, Simulator
from .process import Actor, ServiceQueue, Timer
from .rng import RandomStreams
from .runtime import SimRuntime
from .trace import TraceRecord, Tracer

__all__ = [
    "Actor",
    "EventHandle",
    "RandomStreams",
    "SimulationError",
    "SimRuntime",
    "ServiceQueue",
    "Simulator",
    "Timer",
    "TraceRecord",
    "Tracer",
]
