"""Composite Sensor Provider — logical sensor networking (§V.B).

A CSP composes elementary and composite sensor services. Its two roles:

* **aggregate** — collect values from component services (as a P2P
  requestor, exerting ``getValue`` tasks bound by service id), evaluate the
  attached compute-expression over dynamically created variables
  (``a``, ``b``, ... in composition order) and return the calibrated
  composite value through the same ``SensorDataAccessor`` interface;
* **child** — since a CSP *is* a sensor service, it can itself be composed
  into a parent CSP, which is what makes a whole sensor network manageable
  as a single CSP.

Cycle safety: a ``composite/visited`` list travels in the exertion context;
a CSP that finds itself already visited fails the request instead of
recursing forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..expr import Expression, ExprError
from ..jini.entries import SensorType
from ..net.host import Host
from ..observability import metrics_registry
from ..resilience import resilience_events
from ..sorcer.context import ServiceContext
from ..sorcer.exerter import Exerter
from ..sorcer.exertion import Strategy
from ..sorcer.provider import ServiceProvider
from ..sorcer.signature import Signature
from .interfaces import (
    COMPOSITE_PROVIDER,
    KIND_COMPOSITE,
    OP_ADD_SERVICE,
    OP_GET_INFO,
    OP_GET_VALUE,
    OP_LIST_SERVICES,
    OP_REMOVE_SERVICE,
    OP_SET_EXPRESSION,
    SENSOR_DATA_ACCESSOR,
)
from .variables import variable_name

__all__ = ["CompositeSensorProvider", "CompositionError", "STALE_PATH"]

VISITED_PATH = "composite/visited"
#: Result-context path listing stale substitutions made for this query.
STALE_PATH = "composite/stale"


class CompositionError(Exception):
    """Invalid composite configuration (cycle, bad expression, unknown child)."""


@dataclass
class _Child:
    service_id: str
    display_name: str


class CompositeSensorProvider(ServiceProvider):
    """Aggregates sensor services and evaluates compute-expressions."""

    SERVICE_TYPES = (SENSOR_DATA_ACCESSOR, COMPOSITE_PROVIDER)

    def __init__(self, host: Host, name: str,
                 strategy: Strategy = Strategy.PARALLEL,
                 child_wait: float = 5.0,
                 child_timeout: float = 10.0,
                 fault_policy: str = "strict",
                 stale_max_age: float = 30.0,
                 attributes: tuple = (),
                 **kwargs):
        """``child_timeout`` bounds each child invocation (sensor reads are
        fast; a slow child is a lost message or a dead host and the exerter
        should retry/fail over rather than wait).

        ``fault_policy``:

        * ``"strict"`` (default) — any unreachable child fails the query;
        * ``"skip"`` — aggregate over the children that answered. Only
          valid while no expression is attached (an expression names its
          variables, so a missing child would silently shift bindings);
        * ``"degraded"`` — substitute a child's last known good value when
          it is unreachable (open-circuit or timed out), provided the value
          is younger than ``stale_max_age``. Variable bindings are
          preserved, so this is legal even with an expression attached;
          substitutions are flagged in the returned context.

        Setting the ``coalesce`` attribute shares one in-flight child
        collection among all concurrent ``getValue`` queries: under read
        pressure N overlapping reads cost one fan-out instead of N (the
        bindings are identical anyway — the sensors can't have re-sampled
        mid-collection). Any composition change bumps an epoch so joiners
        never see a fan-out started against the old child set. Off unless
        set: coalescing trades read isolation for throughput, which only
        pays under load.
        """
        if fault_policy not in ("strict", "skip", "degraded"):
            raise ValueError(f"unknown fault_policy {fault_policy!r}")
        composite_attrs = (SensorType(service_kind=KIND_COMPOSITE),)
        super().__init__(host, name,
                         attributes=composite_attrs + tuple(attributes),
                         **kwargs)
        self.strategy = strategy
        self.child_wait = child_wait
        self.child_timeout = child_timeout
        self.fault_policy = fault_policy
        self.stale_max_age = stale_max_age
        self.children: list[_Child] = []
        self.expression: Optional[Expression] = None
        self.exerter = Exerter(host)
        self.events = resilience_events(host.network)
        #: Degraded-mode cache: child service_id -> (timestamp, value).
        self.last_known_good: dict[str, tuple[float, float]] = {}
        #: Read coalescing: share one child fan-out among concurrent reads.
        self.coalesce = False
        self._read_epoch = 0
        self._inflight_read: Optional[tuple] = None
        self._m_coalesced = metrics_registry(host.network).counter(
            "csp.coalesced", provider=name)
        self.add_operation(OP_GET_VALUE, self._op_get_value)
        self.add_operation(OP_GET_INFO, self._op_get_info)
        self.add_operation(OP_ADD_SERVICE, self._op_add_service)
        self.add_operation(OP_REMOVE_SERVICE, self._op_remove_service)
        self.add_operation(OP_SET_EXPRESSION, self._op_set_expression)
        self.add_operation(OP_LIST_SERVICES, self._op_list_services)

    # -- composition management (local API; also exposed as operations) ---------------

    def variable_of(self, service_id: str) -> str:
        for index, child in enumerate(self.children):
            if child.service_id == service_id:
                return variable_name(index)
        raise CompositionError(f"{service_id!r} is not composed in {self.name!r}")

    def add_child(self, service_id: str, display_name: str) -> str:
        """Compose a sensor service; returns the variable created for it."""
        if service_id == self.service_id:
            raise CompositionError(f"{self.name!r} cannot contain itself")
        if any(c.service_id == service_id for c in self.children):
            raise CompositionError(
                f"{display_name!r} ({service_id}) already composed in {self.name!r}")
        self.children.append(_Child(service_id, display_name))
        self._read_epoch += 1
        return variable_name(len(self.children) - 1)

    def remove_child(self, service_id: str) -> None:
        before = len(self.children)
        self.children = [c for c in self.children if c.service_id != service_id]
        if len(self.children) == before:
            raise CompositionError(f"{service_id!r} is not composed in {self.name!r}")
        self._read_epoch += 1
        self._check_expression_bindings()

    def set_expression(self, text: Optional[str]) -> None:
        """Attach (or clear, with ``None``) the compute-expression."""
        if text is None:
            self.expression = None
            return
        if self.fault_policy == "skip":
            raise CompositionError(
                "expressions require fault_policy='strict' or 'degraded': a "
                "skipped child would silently re-map the remaining variables")
        try:
            expression = Expression(text)
        except ExprError as exc:
            raise CompositionError(f"bad expression {text!r}: {exc}") from exc
        self.expression = expression
        self._read_epoch += 1
        self._check_expression_bindings()

    def _check_expression_bindings(self) -> None:
        if self.expression is None:
            return
        available = {variable_name(i) for i in range(len(self.children))}
        unbound = set(self.expression.variables) - available
        if unbound:
            raise CompositionError(
                f"expression {self.expression.text!r} references unbound "
                f"variable(s) {sorted(unbound)}; composed services define "
                f"{sorted(available)}")

    # -- value aggregation ----------------------------------------------------------

    def _ask(self, child: _Child, visited: list, parent_ctx: ServiceContext,
             parallel: bool):
        """Start one child's ``getValue``. The hop serves ``parent_ctx``: a
        child of this CSP's serve span, inheriting the caller's remaining
        budget instead of compounding its own waits on top of it."""
        ctx = ServiceContext(f"{self.name}->{child.display_name}")
        ctx.put_value(VISITED_PATH, list(visited))
        name = f"collect-{child.display_name}"
        return self.exerter.submit(
            Signature(SENSOR_DATA_ACCESSOR, OP_GET_VALUE,
                      service_id=child.service_id),
            name=name, context=ctx, caller=parent_ctx,
            provider_wait=self.child_wait,
            invocation_timeout=self.child_timeout,
            process=f"csp-collect:{name}" if parallel else None)

    def _collect(self, visited: list, parent_ctx: ServiceContext):
        """Collect child values; returns ({variable: value}, stale-notes).
        Generator. Under ``fault_policy="degraded"`` an unreachable child's
        binding is served from ``last_known_good`` when fresh enough."""
        if not self.children:
            raise CompositionError(f"{self.name!r} has no composed services")
        if self.strategy is Strategy.PARALLEL:
            results = yield self.env.all_of([
                self._ask(child, visited, parent_ctx, parallel=True)
                for child in self.children])
        else:
            results = []
            for child in self.children:
                result = yield self._ask(child, visited, parent_ctx,
                                         parallel=False)
                results.append(result)
        bindings = {}
        failures = []
        stale = []
        now = self.env.now
        for index, result in enumerate(results):
            child = self.children[index]
            if result.is_failed:
                if self.fault_policy == "degraded":
                    cached = self.last_known_good.get(child.service_id)
                    if cached is not None and now - cached[0] <= self.stale_max_age:
                        bindings[variable_name(index)] = cached[1]
                        age = now - cached[0]
                        stale.append({"variable": variable_name(index),
                                      "child": child.display_name,
                                      "age": age})
                        self.events.emit("stale_substitution",
                                         composite=self.name,
                                         child=child.display_name,
                                         age=round(age, 6))
                        continue
                failures.append(
                    f"{child.display_name}: {result.exceptions}")
                continue
            value = result.get_return_value()
            bindings[variable_name(index)] = value
            self.last_known_good[child.service_id] = (now, value)
        # An expression needs every variable bound; strict needs every child
        # live. Degraded tolerates failures only when stale values (or, with
        # no expression, the surviving children) cover them.
        if failures and (self.fault_policy == "strict"
                         or self.expression is not None):
            raise CompositionError(
                f"{self.name!r}: component value collection failed: "
                + "; ".join(failures))
        if not bindings:
            raise CompositionError(
                f"{self.name!r}: no component answered "
                f"({len(failures)} failures)")
        return bindings, stale

    def _collect_coalesced(self, visited: list, parent_ctx: ServiceContext):
        """Like :meth:`_collect`, but concurrent reads share one fan-out.

        The first reader (the *leader*) runs the real collection; readers
        arriving while it is in flight wait on its completion event and
        reuse its bindings. The sharing token carries the composition
        epoch, so a fan-out started before an add/remove/set_expression is
        never joined afterwards. The event always *succeeds* — carrying an
        ``("ok", ...)`` or ``("err", ...)`` outcome — because a failed
        event with multiple observers would escape the scheduler.
        """
        if not self.coalesce:
            result = yield from self._collect(visited, parent_ctx)
            return result
        token = self._inflight_read
        if token is not None and token[0] == self._read_epoch:
            self._m_coalesced.inc()
            self.events.emit("csp_coalesced", composite=self.name)
            outcome = yield token[1]
            if outcome[0] == "ok":
                return outcome[1], outcome[2]
            raise CompositionError(outcome[1])
        event = self.env.event()
        self._inflight_read = (self._read_epoch, event)
        try:
            bindings, stale = yield from self._collect(visited, parent_ctx)
        except BaseException as exc:
            if self._inflight_read is not None \
                    and self._inflight_read[1] is event:
                self._inflight_read = None
            event.succeed(("err", str(exc)))
            raise
        if self._inflight_read is not None and self._inflight_read[1] is event:
            self._inflight_read = None
        event.succeed(("ok", bindings, stale))
        return bindings, stale

    def _op_get_value(self, ctx):
        visited = list(ctx.get_value(VISITED_PATH, []))
        if self.service_id in visited:
            raise CompositionError(
                f"composition cycle detected at {self.name!r} "
                f"(visited: {len(visited)} services)")
        visited.append(self.service_id)
        bindings, stale = yield from self._collect_coalesced(visited, ctx)
        if self.expression is not None:
            value = self.expression.evaluate(bindings)
        else:
            values = list(bindings.values())
            value = sum(values) / len(values)
        if stale:
            # Travels back to the requestor in the result context.
            ctx.put_value(STALE_PATH, stale)
        return value

    # -- info / management operations ----------------------------------------------

    def _op_get_info(self, ctx):
        return {
            "name": self.name,
            "service_id": self.service_id,
            "service_type": KIND_COMPOSITE,
            "quantity": None,
            "unit": "composite",
            "contained_services": [c.display_name for c in self.children],
            "expression": self.expression.text if self.expression else None,
            "fault_policy": self.fault_policy,
        }

    def _op_add_service(self, ctx):
        service_id = ctx.get_value("arg/service_id")
        display_name = ctx.get_value("arg/name")
        return self.add_child(service_id, display_name)

    def _op_remove_service(self, ctx):
        self.remove_child(ctx.get_value("arg/service_id"))
        return True

    def _op_set_expression(self, ctx):
        self.set_expression(ctx.get_value("arg/expression"))
        return True

    def _op_list_services(self, ctx):
        return [{"name": child.display_name, "service_id": child.service_id,
                 "variable": variable_name(index)}
                for index, child in enumerate(self.children)]
