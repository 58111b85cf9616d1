"""Service provider base — a servicer peer on the object-oriented overlay.

Every SORCER provider implements the single top-level ``Servicer`` operation

    service(exertion, txn_id) -> exertion

Operations declared in a provider's public interface are *not* remotely
callable; they are only reachable through an exertion naming them in a
signature — exactly the indirect-invocation rule of §IV.D. The base class
handles the exertion lifecycle (copy across the boundary, signature
validation, status/trace bookkeeping, exception capture) and the Jini join
protocol so concrete providers only register operations.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Optional

from ..jini.entries import Entry, Name
from ..jini.join import JoinManager, join_service
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from ..observability import (get_trace_parent, metrics_registry,
                             set_trace_parent, tracer_of)
from ..resilience import Deadline
from ..sim import Resource
from .exertion import Exertion, ExertionStatus, Task, TraceRecord
from .rejection import Overloaded, mark_overloaded

__all__ = ["ServiceProvider"]


class ServiceProvider:
    """Base class for all SenSORCER/SORCER service providers."""

    #: Additional remote interface names contributed by subclasses.
    SERVICE_TYPES: tuple = ()

    def __init__(self, host: Host, name: str,
                 attributes: Iterable[Entry] = (),
                 lease_duration: float = 30.0,
                 max_concurrency: Optional[int] = None):
        self.host = host
        self.env = host.env
        self.name = name
        self.service_id = host.network.ids.uuid()
        #: Seconds of local work per operation (the load lab raises it).
        self.op_overhead = 0.0005
        # Collect types: Servicer + class-level extras.
        types: list[str] = ["Servicer"]
        for klass in type(self).__mro__:
            for t in klass.__dict__.get("SERVICE_TYPES", ()):
                if t not in types:
                    types.append(t)
        self.service_types = tuple(types)
        #: Instance-level remote types picked up by the RPC export.
        self.REMOTE_TYPES = self.service_types
        self._operations: dict[str, Callable] = {}
        self._extra_attributes = tuple(attributes)
        self._endpoint = rpc_endpoint(host)
        self.ref = self._endpoint.export(self, f"provider:{self.service_id}",
                                         methods=("service",))
        self._join: Optional[JoinManager] = None
        self._lease_duration = lease_duration
        #: Optional cap on in-flight exertions (a provider's thread pool).
        self._gate = (Resource(host.env, max_concurrency)
                      if max_concurrency else None)
        #: Optional :class:`~repro.overload.AdmissionController`, attached
        #: after construction. None (the default) means every request is
        #: admitted — existing labs keep their exact behaviour.
        self.admission = None
        self.tracer = tracer_of(host.network)
        registry = metrics_registry(host.network)
        self._m_served = registry.counter("provider.served", provider=name)
        self._m_failed = registry.counter("provider.failed", provider=name)
        #: In-flight exertions, including those queued on the concurrency
        #: gate — the provider's instantaneous load/queue depth.
        self._m_inflight = registry.gauge("provider.inflight", provider=name)
        self._m_service_time = registry.histogram("provider.service_time",
                                                  provider=name)

    # -- configuration -----------------------------------------------------------

    def add_operation(self, selector: str, fn: Callable) -> None:
        """Register an operation; ``fn(context)`` returns the result value
        (or a generator that does). The result is stored at the context's
        return path."""
        if selector in self._operations:
            raise ValueError(f"operation {selector!r} already registered on {self.name}")
        self._operations[selector] = fn

    def operations(self) -> list[str]:
        return sorted(self._operations)

    def attributes(self) -> tuple:
        return (Name(self.name),) + self._extra_attributes

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> "ServiceProvider":
        """Join the network: register with every discoverable LUS."""
        if self._join is None:
            self._join = join_service(self.host, self.ref, self.service_id,
                                      self.attributes(),
                                      lease_duration=self._lease_duration)
        return self

    def update_attributes(self) -> None:
        """Push the current attribute set to the lookup services."""
        if self._join is not None:
            self._join.update_attributes(self.attributes())

    def destroy(self):
        """Gracefully leave the network (a generator — run as a process)."""
        if self._join is not None:
            yield from self._join.terminate()
            self._join = None
        self._endpoint.unexport(f"provider:{self.service_id}")

    # -- the Servicer operation ---------------------------------------------------------

    def service(self, exertion: Exertion, txn_id: Optional[int] = None):
        """Top-level remote operation; a generator run by the RPC layer.

        Opens the provider-side span of the hop, parented by the
        requestor's span id carried in the exertion context; our span id
        replaces it so nested exertions spawned while executing (a jobber
        running components, a CSP collecting children) parent here.
        """
        exertion = exertion.copy()  # serialization boundary
        with self.tracer.start_span(
                f"serve:{exertion.name}", kind="serve", host=self.host.name,
                parent_id=get_trace_parent(exertion.context),
                provider=self.name) as span:
            if span.span_id is not None:
                set_trace_parent(exertion.context, span.span_id)
            self._m_inflight.inc()
            grant = None
            admitted = False
            started = None
            try:
                if self.admission is not None:
                    arrived = self.env.now
                    try:
                        # Travels under its own deadline, or the expiry a
                        # parent hop forwarded in the service context.
                        yield from self.admission.acquire(
                            exertion.principal, exertion.control.deadline
                            or Deadline.from_context(exertion.context))
                    except Overloaded as exc:
                        return self._shed(exertion, exc, arrived, span)
                    admitted = True
                if self._gate is not None:
                    grant = self._gate.request()
                    yield grant
                started = self.env.now
                exertion.status = ExertionStatus.RUNNING
                try:
                    result = yield from self._execute(exertion, txn_id)
                except Overloaded as exc:
                    # A downstream hop shed this exertion's nested work. We
                    # are alive and answering — propagate the rejection
                    # marker without counting a provider failure here.
                    return self._shed(exertion, exc, started, span)
                except Exception as exc:  # repro: allow[SIM001] - reported in the exertion
                    exertion.report_exception(exc)
                    self._m_failed.inc()
                    self._trace(exertion, started,
                                note=f"exception: {exc!r}")
                    span.annotate("exception", error=repr(exc))
                    span.end("failed")
                    return exertion
                if exertion.status is ExertionStatus.FAILED:
                    self._m_failed.inc()
                    span.end("failed")
                else:
                    exertion.status = ExertionStatus.DONE
                    self._m_served.inc()
                    span.end("ok")
                self._m_service_time.observe(self.env.now - started)
                self._trace(exertion, started)
                return result if isinstance(result, Exertion) else exertion
            finally:
                self._m_inflight.dec()
                if grant is not None:
                    self._gate.release(grant)
                if admitted:
                    service_time = (self.env.now - started
                                    if started is not None else None)
                    self.admission.release(service_time=service_time)

    def _shed(self, exertion: Exertion, exc: Overloaded, started: float,
              span) -> Exertion:
        """Fail the exertion as *shed*: the failed result carries the
        rejection marker, and neither ``provider.failed`` nor ``stats``
        count it — a shedding provider is healthy, not failing."""
        exertion.report_exception(exc)
        mark_overloaded(exertion.context, exc)
        self._trace(exertion, started, note=f"shed: {exc.reason}")
        span.annotate("overload_shed", reason=exc.reason,
                      tenant=exc.tenant)
        span.end("shed")
        return exertion

    def _execute(self, exertion: Exertion, txn_id: Optional[int]):
        """Default behaviour: dispatch a task's selector to an operation.

        Subclasses (Jobber, Spacer) override for composite exertions.
        """
        if not isinstance(exertion, Task):
            raise TypeError(
                f"{self.name} is a task peer; cannot execute {type(exertion).__name__}")
        signature = exertion.signature
        if signature.service_type not in self.service_types:
            raise TypeError(
                f"{self.name} does not implement {signature.service_type!r}")
        op = self._operations.get(signature.selector)
        if op is None:
            raise LookupError(
                f"{self.name} has no operation {signature.selector!r}")
        if self.op_overhead > 0:
            yield self.env.timeout(self.op_overhead)
        value = op(exertion.context)
        if inspect.isgenerator(value):
            # Runs inside the serving process: no process of its own.
            value = yield from value
        if value is not None:
            exertion.context.set_return_value(value)
        return exertion

    def _trace(self, exertion: Exertion, started: float, note: str = "") -> None:
        exertion.trace.append(TraceRecord(
            exertion=exertion.name, provider=self.name, host=self.host.name,
            started_at=started, finished_at=self.env.now, note=note))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} on {self.host.name}>"
