"""Federated method invocation — ``exert`` sends an exertion onto the network.

The requestor-side runtime: bind a task to any live provider matching its
signature (trying alternates on failure — the paper's "request can be passed
on to the equivalent available service provider"), or route a job to a
rendezvous peer (Jobber for PUSH, Spacer for PULL).

Failure handling is governed by the resilience layer:

* retries back off exponentially with deterministic per-host jitter
  (:class:`~repro.resilience.RetryPolicy`) instead of hammering instantly;
* an optional :class:`~repro.resilience.Deadline` in the control context is
  an end-to-end budget — provider waits, per-attempt timeouts and backoff
  delays are all clamped to what remains, and the expiry is forwarded to
  providers so nested exertions inherit it;
* per-provider circuit breakers skip candidates that recently looked dead
  in O(1) instead of burning a timeout on each. An exertion with a deadline
  fails fast when every candidate is open-circuit; a patient exertion
  (no deadline) probes the open breaker anyway, so liveness is never lost.
"""

from __future__ import annotations

from typing import Optional, Union

from ..jini.template import ServiceTemplate
from ..net.errors import HostDownError, NetworkError, RpcTimeout, UnreachableError
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from ..observability import (
    NULL_SPAN,
    get_trace_parent,
    metrics_registry,
    propagate_trace,
    set_trace_parent,
    tracer_of,
)
from ..resilience import (
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    backoff_rng,
    resilience_events,
    retry_budget_of,
)
from .accessor import ServiceAccessor
from .context import ServiceContext
from .exertion import Access, ControlContext, Exertion, Job, Task
from .rejection import Overloaded, rejection_marker
from .signature import Signature

__all__ = ["Exerter", "ExertionFailed"]

JOBBER_TYPE = "Jobber"
SPACER_TYPE = "Spacer"

#: Failures that indicate the *provider* (not the request) is in trouble —
#: the only ones that feed circuit breakers. A RemoteError means the host
#: answered; tripping its breaker would punish a live provider.
_BREAKER_FAILURES = (RpcTimeout, HostDownError, UnreachableError)


class ExertionFailed(Exception):
    """A requestor call failed (rather than was shed); ``exceptions`` holds
    the result's reported exception strings."""

    def __init__(self, exceptions: list):
        super().__init__(exceptions)
        self.exceptions = exceptions


class Exerter:
    """Requestor-side exertion runtime bound to one host."""

    #: Default backoff between retries when the control context names none.
    DEFAULT_BACKOFF = RetryPolicy(base_delay=0.2, max_delay=5.0)

    def __init__(self, host: Host, accessor: Optional[ServiceAccessor] = None):
        self.host = host
        self.env = host.env
        self.accessor = accessor if accessor is not None else ServiceAccessor(host)
        self._endpoint = rpc_endpoint(host)
        #: Per-provider circuit breakers, shared host-wide via the accessor.
        self.breakers = self.accessor.breakers
        self.events = resilience_events(host.network)
        self.tracer = tracer_of(host.network)
        registry = metrics_registry(host.network)
        self._m_latency = registry.histogram("exertion.latency", host=host.name)
        self._m_retries = registry.counter("exertion.retries", host=host.name)
        self._m_failures = registry.counter("exertion.failures", host=host.name)
        #: Stable jitter stream: independent of all other RNGs in the run.
        self._rng = backoff_rng(host.name, salt=1)
        #: Host-wide retry budget: retries are a fraction of successes, so
        #: a brownout can never be amplified into a retry storm.
        self.retry_budget = retry_budget_of(host)
        #: Rotates candidate lists so equivalent providers share the load.
        self._rotation = 0

    # -- public API ---------------------------------------------------------------

    def exert(self, exertion: Exertion, txn_id: Optional[int] = None):
        """Run the exertion on the network; a generator returning the
        resulting exertion (never raises for modelled failures — inspect
        ``result.status`` / ``result.exceptions``).

        Opens the requestor-side span of this hop. A parent link planted in
        the exertion's context (by a jobber, CSP or facade running us as a
        nested step) makes this span a child; otherwise it roots a new
        trace. Our own span id replaces the link so the provider side and
        the RPC layer hang underneath.
        """
        with self.tracer.start_span(
                f"exert:{exertion.name}", kind="exert", host=self.host.name,
                parent_id=get_trace_parent(exertion.context)) as span:
            if span.span_id is not None:
                set_trace_parent(exertion.context, span.span_id)
            started = self.env.now
            if isinstance(exertion, Job):
                result = yield from self._exert_job(exertion, txn_id, span)
            elif isinstance(exertion, Task):
                result = yield from self._exert_task(exertion, txn_id, span)
            else:
                raise TypeError(f"cannot exert {type(exertion).__name__}")
            self._m_latency.observe(self.env.now - started)
            if result.is_failed:
                marker = rejection_marker(result.context)
                if marker is not None:
                    # Shed by admission control, not failed by a provider:
                    # keep it out of the failure rate (health/breakers must
                    # not read load shedding as provider sickness).
                    self.events.emit("overload_rejected",
                                     exertion=exertion.name,
                                     provider=marker.get("provider", ""),
                                     reason=marker.get("reason", ""),
                                     retry_after=marker.get("retry_after", 0.0))
                    span.annotate("overload_rejected",
                                  reason=marker.get("reason", ""))
                    span.end("shed")
                else:
                    self._m_failures.inc()
                    span.end("failed")
            else:
                self.retry_budget.deposit()
                span.end("ok")
            return result

    def submit(self, signature: Signature, args: Optional[dict] = None, *,
               name: str, context: Union[str, ServiceContext],
               caller: Optional[ServiceContext] = None,
               budget: Optional[float] = None,
               principal: str = "anonymous",
               process: Optional[str] = None, **control):
        """Start a requestor call (§IV.D: name what to invoke, never whom);
        returns the kernel process, named ``process``, that triggers with
        the result exertion. ``context`` names the task's fresh context, or
        is one the caller already put paths in; ``args`` land under
        ``arg/``. Serving ``caller``, the context of the request this call
        is made for, makes the hop a child of its span and caps it at its
        deadline; ``budget`` seconds from now cap it further. ``control``
        sets :class:`ControlContext` fields."""
        ctx = (context if isinstance(context, ServiceContext)
               else ServiceContext(context))
        propagate_trace(caller, ctx)
        for key, value in (args or {}).items():
            ctx.put_in_value(f"arg/{key}", value)
        deadline = Deadline.from_context(caller) if caller is not None else None
        if budget is not None:
            now = self.env.now
            if deadline is not None:
                # The nested hop must not outlive the request it serves.
                budget = min(budget, deadline.remaining(now))
            deadline = Deadline.after(now, budget)
        task = Task(name, signature, ctx, principal=principal)
        task.control = ControlContext(deadline=deadline, **control)
        return self.env.process(self.exert(task), name=process)

    def call(self, signature: Signature, args: Optional[dict] = None,
             **request):
        """:meth:`submit`, then unwrap (a generator): the operation's value,
        :class:`Overloaded` if it was shed, else :class:`ExertionFailed`."""
        result = yield self.submit(signature, args, **request)
        if result.is_failed:
            marker = rejection_marker(result.context)
            if marker is not None:
                raise Overloaded.from_marker(marker)
            raise ExertionFailed(result.exceptions)
        return result.get_return_value()

    # -- internals ------------------------------------------------------------------

    def _fail(self, exertion: Exertion, message: str) -> Exertion:
        exertion = exertion.copy()
        exertion.report_exception(message)
        return exertion

    def _acquire_candidate(self, items, attempt: int, patient: bool,
                           span=NULL_SPAN):
        """First candidate (in rotated order) whose breaker admits a call.

        Open breakers are a *latency* optimization, so they only hard-refuse
        when the caller declared a time budget. A patient caller (no
        deadline) prefers certainty over speed: if every breaker refuses,
        the rotated pick is probed anyway — a breaker must never turn a
        slow-but-alive federation into a permanently unreachable one.
        """
        n = len(items)
        for k in range(n):
            item = items[(attempt + k) % n]
            if self.breakers.try_acquire(item.service_id, self.env.now):
                return item
            self.events.emit("breaker_skip", provider=item.service_id)
            span.annotate("breaker_skip", provider=item.service_id)
        if not patient:
            return None
        item = items[attempt % n]
        self.events.emit("breaker_forced_probe", provider=item.service_id)
        span.annotate("breaker_forced_probe", provider=item.service_id)
        return item

    def _backoff(self, policy: RetryPolicy, attempt: int,
                 deadline: Optional[Deadline], name: str, span=NULL_SPAN):
        """Sleep the jittered backoff before retry ``attempt``; returns
        ``True`` when the retry should proceed, ``False`` when it must be
        abandoned (deadline would expire during the sleep, or the host's
        retry budget is dry)."""
        delay = policy.delay_before_retry(attempt, self._rng,
                                          deadline=deadline, now=self.env.now)
        if delay is None:
            # The retry could never finish inside its own deadline —
            # scheduling it would burn provider capacity on dead work.
            self.events.emit("retry_abandoned", exertion=name,
                             attempt=attempt)
            span.annotate("retry_abandoned", attempt=attempt)
            return False
        if not self.retry_budget.try_spend():
            self.events.emit("retry_budget_exhausted", exertion=name,
                             attempt=attempt)
            span.annotate("retry_budget_exhausted", attempt=attempt)
            return False
        self._m_retries.inc()
        self.events.emit("retry_scheduled", exertion=name, attempt=attempt,
                         delay=round(delay, 6))
        span.annotate("retry_scheduled", attempt=attempt,
                      delay=round(delay, 6))
        if delay > 0:
            yield self.env.timeout(delay)
        return True

    def _invoke_candidates(self, exertion, items, txn_id,
                           failure_label: str, span, tried: list):
        """Shared attempt loop for tasks and jobs: breaker-aware candidate
        choice, deadline-clamped timeouts, backoff between attempts.
        Returns the provider's result or raises the last failure; adds
        each invoked provider's id to ``tried``."""
        control = exertion.control
        deadline = control.deadline
        policy = control.backoff if control.backoff is not None else self.DEFAULT_BACKOFF
        if deadline is not None:
            # Forward the expiry so the provider's own nested exertions
            # (a CSP collecting children, say) inherit the same budget.
            deadline.to_context(exertion.context)
        attempts = 1 + max(0, control.retries)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            now = self.env.now
            if deadline is not None and deadline.expired(now):
                self.events.emit("deadline_exceeded", exertion=exertion.name)
                span.annotate("deadline_exceeded")
                raise last_error if last_error is not None else DeadlineExceeded(
                    f"{exertion.name!r}: budget spent before any attempt completed")
            # Cycle through candidates; with a single candidate this is a
            # plain retransmission (a lost message, not a dead provider).
            item = self._acquire_candidate(items, attempt,
                                           patient=deadline is None,
                                           span=span)
            if item is None:
                raise CircuitOpenError(
                    f"{failure_label}: all {len(items)} candidate provider(s) "
                    "open-circuit")
            tried.append(item.service_id)
            timeout = control.invocation_timeout
            if deadline is not None:
                timeout = deadline.clamp(timeout, now)
            try:
                result = yield self._endpoint.call(
                    item.service, "service", exertion, txn_id,
                    kind="exertion", timeout=timeout,
                    trace_parent=span.span_id)
                self.breakers.record_success(item.service_id, self.env.now)
                return result
            except NetworkError as exc:
                # Kept as a value: its traceback holds this frame, which
                # holds ``last_error`` — a cycle once a retry succeeds.
                last_error = exc.with_traceback(None)
                if isinstance(exc, _BREAKER_FAILURES):
                    self.breakers.record_failure(item.service_id, self.env.now)
                else:
                    # The host answered (RemoteError wraps a server-side
                    # exception), so as far as the breaker is concerned the
                    # provider is alive. Recording success also releases the
                    # half-open probe slot this call may hold — without it a
                    # probe ending in RemoteError pins the slot and the
                    # breaker refuses every later acquire (stuck open for
                    # deadline-bearing callers even after the link heals).
                    self.breakers.record_success(item.service_id, self.env.now)
                if attempt + 1 < attempts:
                    proceed = yield from self._backoff(
                        policy, attempt, deadline, exertion.name, span=span)
                    if not proceed:
                        if deadline is not None and deadline.expired(self.env.now):
                            self.events.emit("deadline_exceeded",
                                             exertion=exertion.name)
                            span.annotate("deadline_exceeded")
                        break
        raise last_error if last_error is not None else RpcTimeout(
            f"{failure_label}: no attempt completed")

    def _exert_task(self, task: Task, txn_id: Optional[int], span=NULL_SPAN):
        result, last_error = yield from self._bind_and_invoke(
            task, task.signature, txn_id, span, f"task {task.name!r}",
            "no provider for {signature} within {wait}s")
        if last_error is None:
            return result
        return self._fail(task, f"all candidate providers failed: {last_error!r}")

    def _exert_job(self, job: Job, txn_id: Optional[int], span=NULL_SPAN):
        rendezvous_type = (SPACER_TYPE if job.control.access is Access.PULL
                           else JOBBER_TYPE)
        result, error = yield from self._bind_and_invoke(
            job, Signature(rendezvous_type, "service"), txn_id, span,
            f"job {job.name!r}",
            f"no {rendezvous_type} rendezvous peer on the network")
        if error is None:
            return result
        return self._fail(job, f"rendezvous invocation failed: {error!r}")

    def _bind_and_invoke(self, exertion: Exertion, signature: Signature,
                         txn_id: Optional[int], span, label: str, nobody: str):
        """What tasks and jobs share: refuse a spent deadline, find providers
        within the clamped wait (none: fail with ``nobody``, a template
        over ``signature`` and ``wait``), invoke them — and, when they all
        failed on a cache hit, the providers one live lookup newly names.
        Returns ``(result, None)`` — ``result`` possibly a failed copy of
        ``exertion`` — or ``(None, error)`` when every attempt ended in a
        network error."""
        deadline = exertion.control.deadline
        wait = exertion.control.provider_wait
        if deadline is not None:
            now = self.env.now
            if deadline.expired(now):
                self.events.emit("deadline_exceeded", exertion=exertion.name)
                span.annotate("deadline_exceeded")
                return self._fail(exertion, "deadline expired before exerting "
                                            f"{exertion.name!r}"), None
            wait = deadline.clamp(wait, now)
        template = signature.template()
        # A hit is answered without yielding, so this is the answer the
        # lookup below is about to give.
        hit = self.accessor.is_cached(template)
        items = yield from self._find_providers(template, wait)
        if not items:
            return self._fail(exertion, nobody.format(signature=signature,
                                                      wait=wait)), None
        tried: list = []
        while True:
            try:
                result = yield from self._invoke_candidates(
                    exertion, items, txn_id, label, span, tried)
                return result, None
            except (CircuitOpenError, DeadlineExceeded) as exc:
                return self._fail(exertion, str(exc)), None
            except NetworkError as exc:
                # A value from here on; its traceback would hold this frame
                # and the attempt loop's, which both hold the error.
                error = exc.with_traceback(None)
            if not hit or (deadline is not None
                           and deadline.expired(self.env.now)):
                return None, error
            # Every candidate of a cache hit failed: the entry may be stale
            # (a provider died before its lease lapsed, or an event was
            # lost). Distrust it and look up live once; only a provider not
            # just tried earns another round, so none is retried twice.
            hit = False
            self.accessor.invalidate(template)
            span.annotate("cache_invalidated")
            items = yield from self.accessor.find_items(template)
            items = [item for item in items if item.service_id not in tried]
            if not items:
                return None, error

    def _find_providers(self, template: ServiceTemplate, wait: float):
        items = yield from self.accessor.find_items(template, wait=wait)
        if len(items) > 1:
            # Round-robin over equivalent providers (stable id order), so
            # concurrent tasks of a parallel job spread across the grid.
            items = sorted(items, key=lambda item: item.service_id)
            offset = self._rotation % len(items)
            self._rotation += 1
            items = items[offset:] + items[:offset]
        return items
