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
from .sanitizer import RaceSanitizer, SanitizerViolation

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
    "RaceSanitizer",
    "Resource",
    "SanitizerViolation",
    "SimulationError",
    "Store",
    "Timeout",
]
