"""Deterministic discrete-event simulation kernel (SimPy-like subset)."""

from .core import (
    LOW,
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Resource, Store

__all__ = [
    "LOW",
    "NORMAL",
    "URGENT",
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
