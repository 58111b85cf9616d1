"""SORCER exertion-oriented runtime (§IV.D of the paper).

Exertions (tasks/jobs) carry service contexts and signatures; ``exert``
binds them to providers discovered at runtime, forming the federation.
Providers implement the single remote ``service(exertion, txn)`` operation.
Jobber/Spacer are the rendezvous peers; the exertion space supports
transactional PULL dispatch.
"""

from ..jini.join import join_service
from .accessor import ServiceAccessor
from .context import ContextError, ServiceContext
from .exerter import Exerter, ExertionFailed
from .exertion import (
    Access,
    ControlContext,
    Exertion,
    ExertionStatus,
    Job,
    Strategy,
    Task,
    TraceRecord,
)
from .jobber import Jobber
from .provider import ServiceProvider
from .rejection import (
    OVERLOAD_PATH,
    Overloaded,
    mark_overloaded,
    rejection_marker,
)
from .signature import Signature
from .space import Envelope, EnvelopeState, ExertionSpace, SpaceTemplate
from .spacer import SpaceWorker, Spacer
from .tasker import Tasker

__all__ = [
    "Access",
    "ContextError",
    "ControlContext",
    "Envelope",
    "EnvelopeState",
    "Exerter",
    "Exertion",
    "ExertionFailed",
    "ExertionSpace",
    "ExertionStatus",
    "Job",
    "Jobber",
    "OVERLOAD_PATH",
    "Overloaded",
    "ServiceAccessor",
    "ServiceContext",
    "ServiceProvider",
    "Signature",
    "SpaceTemplate",
    "SpaceWorker",
    "Spacer",
    "Strategy",
    "Task",
    "Tasker",
    "TraceRecord",
    "join_service",
    "mark_overloaded",
    "rejection_marker",
]
