"""Exertions — SORCER's federated service requests.

An exertion bundles *data* (a :class:`~repro.sorcer.context.ServiceContext`),
*operations* (:class:`~repro.sorcer.signature.Signature`) and a *control
strategy*. A :class:`Task` is an elementary request executed by a single
provider; a :class:`Job` composes tasks and other jobs and is executed by a
rendezvous peer (Jobber for direct PUSH federation, Spacer for space-based
PULL federation).

The requestor never names a provider — ``exert`` sends the request *onto the
network* and the runtime binds it to whatever matching providers are alive,
forming the exertion federation (§IV.D).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from ..net.wire import WireSized, slots_wire_size
from ..resilience import Deadline, RetryPolicy
from .context import ServiceContext, register_plain_shapes, structural_copy
from .signature import Signature

__all__ = ["Exertion", "Task", "Job", "ControlContext", "Strategy", "Access",
           "ExertionStatus", "TraceRecord"]


class ExertionStatus(Enum):
    INITIAL = "initial"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class Strategy(Enum):
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


class Access(Enum):
    #: Direct federated method invocation to discovered providers.
    PUSH = "push"
    #: Drop into the exertion space; workers pull and execute.
    PULL = "pull"


@dataclass(slots=True)
class ControlContext:
    strategy: Strategy = Strategy.SEQUENTIAL
    access: Access = Access.PUSH
    #: Give up finding a provider after this long.
    provider_wait: float = 10.0
    #: Per-invocation RPC timeout.
    invocation_timeout: float = 30.0
    #: Retries on alternate providers after a provider failure.
    retries: int = 2
    #: End-to-end time budget (absolute sim-time expiry). When set, the
    #: exerter clamps ``provider_wait``, every per-attempt timeout and every
    #: backoff delay to the remaining budget, and forwards the expiry to
    #: providers so nested exertions inherit it instead of compounding
    #: their own timeouts.
    deadline: Optional[Deadline] = None
    #: Backoff between retry attempts; ``None`` uses the exerter's default
    #: policy. Delays are jittered deterministically (seeded per host).
    backoff: Optional[RetryPolicy] = None


@dataclass(slots=True)
class TraceRecord:
    """Who executed what, where and when — the exertion's audit trail."""

    exertion: str
    provider: str
    host: str
    started_at: float
    finished_at: float
    note: str = ""


class Exertion(WireSized):
    """Common behaviour of tasks and jobs."""

    __slots__ = ("name", "context", "control", "status", "exceptions",
                 "trace", "principal")

    #: Charged as the ``__dict__`` it had before it grew ``__slots__``.
    wire_size = slots_wire_size

    def __init__(self, name: str, context: Optional[ServiceContext] = None,
                 principal: str = "anonymous"):
        self.name = name
        self.context = context if context is not None else ServiceContext(f"{name}-ctx")
        self.control = ControlContext()
        self.status = ExertionStatus.INITIAL
        self.exceptions: list[str] = []
        self.trace: list[TraceRecord] = []
        #: Who is asking: the tenant a provider's admission controller
        #: meters and fair-queues this exertion under.
        self.principal = principal

    @property
    def is_done(self) -> bool:
        return self.status is ExertionStatus.DONE

    @property
    def is_failed(self) -> bool:
        return self.status is ExertionStatus.FAILED

    def report_exception(self, exc: BaseException | str) -> None:
        self.exceptions.append(str(exc))
        self.status = ExertionStatus.FAILED

    def copy(self) -> "Exertion":
        """Deep copy — models serialization across the network boundary."""
        return structural_copy(self, {})

    def get_return_value(self, default: Any = None) -> Any:
        return self.context.get_return_value(default)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} {self.status.value}>"


class Task(Exertion):
    """Elementary exertion: one signature, one provider."""

    __slots__ = ("signature",)

    def __init__(self, name: str, signature: Signature,
                 context: Optional[ServiceContext] = None,
                 principal: str = "anonymous"):
        super().__init__(name, context, principal=principal)
        self.signature = signature


class Job(Exertion):
    """Composite exertion: nested tasks/jobs run in order or in parallel.

    The job's own context aggregates component results: when component ``c``
    finishes, its return value lands at job path ``c/<return_path>``.
    """

    __slots__ = ("exertions",)

    def __init__(self, name: str, exertions: Optional[list[Exertion]] = None,
                 context: Optional[ServiceContext] = None,
                 strategy: Strategy = Strategy.SEQUENTIAL,
                 access: Access = Access.PUSH,
                 principal: str = "anonymous"):
        super().__init__(name, context, principal=principal)
        self.exertions: list[Exertion] = list(exertions or [])
        self.control.strategy = strategy
        self.control.access = access

    def add(self, exertion: Exertion) -> "Job":
        if any(e.name == exertion.name for e in self.exertions):
            raise ValueError(f"duplicate component exertion name {exertion.name!r}")
        self.exertions.append(exertion)
        return self

    def component(self, name: str) -> Exertion:
        for e in self.exertions:
            if e.name == name:
                return e
        raise KeyError(f"no component exertion named {name!r} in job {self.name!r}")


register_plain_shapes(Task, Job, ControlContext, TraceRecord)
