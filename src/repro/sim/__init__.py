"""Discrete-event simulation substrate for the Treaty reproduction."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .cpu import CpuPool
from .rng import SeededRng, derive_seed
from .sync import Gate, Resource, Semaphore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "CpuPool",
    "Event",
    "Gate",
    "Process",
    "Resource",
    "SeededRng",
    "Semaphore",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "derive_seed",
]
