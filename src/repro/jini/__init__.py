"""Jini-semantics substrate: discovery/join, lookup, leases, events, txns.

A Python re-creation of the Jini network technology the paper builds on
(§IV.B): services register with lookup services under leases, requestors
find them by type + attribute templates, listeners hear about arrivals and
departures, and a two-phase-commit transaction manager supports the
space-based exertion dispatch.
"""

from .discovery import (
    ANNOUNCE_PORT,
    DISCOVERY_GROUP,
    PROBE_PORT,
    LookupDiscovery,
    lookup_discovery,
)
from .entries import (
    Comment,
    Entry,
    Location,
    Name,
    SensorType,
    ServiceInfo,
    attributes_match,
    entry_matches,
)
from .events import (
    ALL_TRANSITIONS,
    EventRegistration,
    HealthEvent,
    RemoteEvent,
    ServiceEvent,
    TRANSITION_MATCH_MATCH,
    TRANSITION_MATCH_NOMATCH,
    TRANSITION_NOMATCH_MATCH,
    push_event,
)
from .discoveryservice import LookupDiscoveryService
from .lease import FOREVER, Landlord, Lease, LeaseDeniedError, UnknownLeaseError
from .leaserenewal import LeaseRenewalService
from .lookup import LookupService, ServiceRegistration
from .join import JoinManager, join_service
from .mailbox import EventMailbox, MailboxRegistration
from .template import ServiceItem, ServiceTemplate
from .txn import (
    CannotCommitError,
    CreatedTransaction,
    TransactionManager,
    TxnState,
    UnknownTransactionError,
    Vote,
)

__all__ = [
    "ALL_TRANSITIONS",
    "ANNOUNCE_PORT",
    "CannotCommitError",
    "Comment",
    "CreatedTransaction",
    "DISCOVERY_GROUP",
    "Entry",
    "EventMailbox",
    "EventRegistration",
    "FOREVER",
    "JoinManager",
    "Landlord",
    "Lease",
    "LeaseDeniedError",
    "LeaseRenewalService",
    "Location",
    "LookupDiscovery",
    "LookupDiscoveryService",
    "LookupService",
    "MailboxRegistration",
    "Name",
    "PROBE_PORT",
    "HealthEvent",
    "RemoteEvent",
    "SensorType",
    "ServiceEvent",
    "ServiceInfo",
    "ServiceItem",
    "ServiceRegistration",
    "ServiceTemplate",
    "TRANSITION_MATCH_MATCH",
    "TRANSITION_MATCH_NOMATCH",
    "TRANSITION_NOMATCH_MATCH",
    "TransactionManager",
    "TxnState",
    "UnknownLeaseError",
    "UnknownTransactionError",
    "Vote",
    "attributes_match",
    "entry_matches",
    "join_service",
    "lookup_discovery",
    "push_event",
]
