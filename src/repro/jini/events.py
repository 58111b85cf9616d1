"""Distributed events: remote event objects and registrations.

A listener is any exported object with a ``notify(remote_event)`` method;
its :class:`~repro.net.rpc.RemoteRef` is handed to the event source. Event
delivery is at-most-once per event with no ordering guarantee across
sources, but each source stamps a per-registration sequence number so
listeners can detect gaps — Jini semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..net.host import Host
from ..net.rpc import RemoteRef, rpc_endpoint
from .lease import Lease

__all__ = [
    "RemoteEvent",
    "ServiceEvent",
    "HealthEvent",
    "EventRegistration",
    "TRANSITION_MATCH_NOMATCH",
    "TRANSITION_NOMATCH_MATCH",
    "TRANSITION_MATCH_MATCH",
    "push_event",
]

#: Service was matching the template and no longer is (left / lease lapsed).
TRANSITION_MATCH_NOMATCH = 1
#: Service newly matches (joined the network).
TRANSITION_NOMATCH_MATCH = 2
#: Service still matches but its registration changed (attributes updated).
TRANSITION_MATCH_MATCH = 4

ALL_TRANSITIONS = (TRANSITION_MATCH_NOMATCH | TRANSITION_NOMATCH_MATCH
                   | TRANSITION_MATCH_MATCH)


@dataclass
class RemoteEvent:
    """Base distributed event."""

    source: str          # id of the emitting service
    event_id: int        # registration this event belongs to
    sequence: int        # per-registration monotone counter
    handback: Any = None  # opaque object the listener registered with


@dataclass
class ServiceEvent(RemoteEvent):
    """Lookup-service event: a service transitioned w.r.t. a template."""

    service_id: str = ""
    transition: int = 0
    #: Snapshot of the item after the transition (None for MATCH_NOMATCH).
    item: Any = None


@dataclass
class HealthEvent(RemoteEvent):
    """An SLO alert surfaced as a distributed event (façade-sourced).

    Fired on the firing/resolved edges only; ``t`` is the simulation time
    the alert engine emitted the alert, which may precede delivery."""

    slo: str = ""
    state: str = ""          # "firing" | "resolved"
    signal: Any = None
    threshold: float = 0.0
    t: float = 0.0
    description: str = ""


@dataclass
class EventRegistration:
    """Returned by notify(): identifies the interest and carries its lease."""

    event_id: int
    source: str
    lease: Lease


def push_event(host: Host, listener: RemoteRef, event: Any, *,
               kind: str) -> None:
    """Push ``event`` to ``listener.notify`` at most once, from ``host``.

    The one best-effort delivery every event source uses, a one-way
    invocation (:meth:`~repro.net.rpc.RpcEndpoint.cast`): it sends nothing
    while ``host`` is down, and nothing comes back — a lost event, an
    unreachable listener or one that raises is simply not heard of again.
    The listener's lease lapsing is what eventually reaps a dead
    registration. Which listeners hear about what stays with the source's
    own registration records.
    """
    if host.up:
        rpc_endpoint(host).cast(listener, "notify", event, kind=kind)
