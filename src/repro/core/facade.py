"""SenSORCER Façade — the single entry point of the system (§V.B).

"The Sensorcer Façade is the single entry point of the SenSORCER system. It
provides a uniform access to the user through the Sensor Browser. The
Façade uses a Sensor Network Manager to provide the CSP network management
functionality ... carried out using Service Accessor and Sensor Service
Provisioner components."

Every UI action of Fig 2/3 maps to one façade operation:

=================  ==========================================================
Browser button     Façade selector (exertion operation)
=================  ==========================================================
Get Sensor List    ``listSensors``
Get Value          ``getValue`` (arg/name)
Compose Service    ``composeService`` (arg/composite, arg/children)
Add Expression     ``addExpression`` (arg/name, arg/expression)
Create Service     ``createService`` (arg/name) — provisions a new CSP
(info pane)        ``getSensorInfo`` (arg/name)
(topology pane)    ``networkSnapshot``
=================  ==========================================================
"""

from __future__ import annotations

from typing import Optional

from ..jini.entries import Name, SensorType
from ..jini.events import HealthEvent, push_event
from ..jini.template import ServiceItem, ServiceTemplate
from ..net.host import Host
from ..sorcer.context import ServiceContext
from ..sorcer.exerter import Exerter, ExertionFailed
from ..sorcer.provider import ServiceProvider
from ..sorcer.rejection import Overloaded
from ..sorcer.signature import Signature
from .interfaces import (
    FACADE,
    KIND_COMPOSITE,
    KIND_ELEMENTARY,
    OP_ADD_SERVICE,
    OP_GET_INFO,
    OP_GET_VALUE,
    OP_LIST_SERVICES,
    OP_SET_EXPRESSION,
    SENSOR_DATA_ACCESSOR,
)
from .manager import NetworkModelError, SensorNetworkManager
from .plan import CompositionPlan, PlanEntry
from .provisioner import ProvisionError, SensorServiceProvisioner

__all__ = ["SensorcerFacade", "FacadeError"]


class FacadeError(Exception):
    """A management request could not be carried out."""


class SensorcerFacade(ServiceProvider):
    """Multiple façades may run; each is a uniform access point."""

    SERVICE_TYPES = (FACADE,)

    def __init__(self, host: Host, name: str = "SenSORCER Facade",
                 provisioner: Optional[SensorServiceProvisioner] = None,
                 **kwargs):
        super().__init__(host, name, **kwargs)
        self.exerter = Exerter(host)
        self.accessor = self.exerter.accessor
        self.manager = SensorNetworkManager()
        self.provisioner = (provisioner if provisioner is not None
                            else SensorServiceProvisioner(host, self.accessor))
        self.add_operation("listSensors", self._op_list_sensors)
        self.add_operation("getValue", self._op_get_value)
        self.add_operation("getValues", self._op_get_values)
        self.add_operation("getSensorInfo", self._op_get_sensor_info)
        self.add_operation("composeService", self._op_compose_service)
        self.add_operation("addExpression", self._op_add_expression)
        self.add_operation("createService", self._op_create_service)
        self.add_operation("networkSnapshot", self._op_network_snapshot)
        self.add_operation("saveNetworkPlan", self._op_save_network_plan)
        self.add_operation("enableSelfHealing", self._op_enable_self_healing)
        self.add_operation("subscribeHealthAlerts",
                           self._op_subscribe_health_alerts)
        self._healing_plan: Optional[CompositionPlan] = None
        self._healing_interval = 5.0
        self._healing_proc = None
        self.healing_actions = 0
        #: Listener refs (e.g. mailbox slots) receiving HealthEvents, and
        #: the per-listener sequence counters Jini events carry.
        self._health_listeners: list = []
        self._health_sequence = 0
        self._alerts_hooked = False

    # -- helpers -----------------------------------------------------------------

    def _find_sensor(self, name: str):
        item = yield from self.accessor.find_one(
            ServiceTemplate(types=(SENSOR_DATA_ACCESSOR,),
                            attributes=(Name(name),)), wait=3.0)
        if item is None:
            raise FacadeError(f"no sensor service named {name!r} on the network")
        return item

    #: Management operations are small; a binding that does not answer
    #: quickly is dead (its lease just hasn't lapsed yet) — keep timeouts
    #: short so control loops (self-healing) stay responsive.
    MGMT_TIMEOUT = 5.0
    #: End-to-end budget per management exertion: covers lookup, retries
    #: and backoff, so a wedged target cannot stall the healing loop for
    #: the compounded sum of its per-attempt timeouts.
    MGMT_BUDGET = 12.0

    def _exert_on(self, item: ServiceItem, selector: str, args: dict,
                  parent_ctx: Optional[ServiceContext] = None):
        # Management hops serve ``parent_ctx`` (child span, capped by its
        # deadline); the healing loop passes none, so its hops root traces.
        # A shed hop raises Overloaded straight through: our own service()
        # wrapper re-marks the facade's result, so the browser sees it too.
        try:
            value = yield from self.exerter.call(
                Signature(SENSOR_DATA_ACCESSOR, selector,
                          service_id=item.service_id), args,
                name=f"facade-{selector}", context=f"facade->{selector}",
                caller=parent_ctx, budget=self.MGMT_BUDGET,
                invocation_timeout=self.MGMT_TIMEOUT, provider_wait=3.0)
        except ExertionFailed as exc:
            raise FacadeError(f"{selector} on {item.name()!r} failed: "
                              f"{exc.exceptions}") from None
        return value

    def _kind_of(self, item: ServiceItem) -> str:
        for attr in item.attributes:
            if isinstance(attr, SensorType) and attr.service_kind:
                return attr.service_kind
        return KIND_ELEMENTARY

    def _track(self, item: ServiceItem) -> None:
        self.manager.register_service(item.service_id, item.name() or "?",
                                      self._kind_of(item))

    # -- operations ----------------------------------------------------------------

    def _op_list_sensors(self, ctx):
        items = yield from self.accessor.find_items(
            ServiceTemplate.by_type(SENSOR_DATA_ACCESSOR), max_matches=128)
        out = []
        for item in sorted(items, key=lambda i: i.name() or ""):
            self._track(item)
            out.append({
                "name": item.name(),
                "service_id": item.service_id,
                "service_type": self._kind_of(item),
            })
        return out

    def _op_get_value(self, ctx):
        name = ctx.get_value("arg/name")
        item = yield from self._find_sensor(name)
        value = yield from self._exert_on(item, OP_GET_VALUE, {},
                                          parent_ctx=ctx)
        return value

    def _op_get_sensor_info(self, ctx):
        name = ctx.get_value("arg/name")
        item = yield from self._find_sensor(name)
        info = yield from self._exert_on(item, OP_GET_INFO, {},
                                         parent_ctx=ctx)
        return info

    def _op_get_values(self, ctx):
        """Read several sensors in one façade call; children are queried
        concurrently. Unreachable sensors map to ``None`` instead of
        failing the batch."""
        names = ctx.get_value("arg/names")

        def one(name):
            try:
                item = yield from self._find_sensor(name)
                value = yield from self._exert_on(item, OP_GET_VALUE, {},
                                                  parent_ctx=ctx)
                return value
            except (FacadeError, Overloaded):
                return None

        procs = {name: self.env.process(one(name), name=f"facade-batch:{name}")
                 for name in names}
        yield self.env.all_of(list(procs.values()))
        return {name: proc.value for name, proc in procs.items()}

    def _op_compose_service(self, ctx):
        """Add child services to a composite; returns {child: variable}."""
        composite_name = ctx.get_value("arg/composite")
        child_names = ctx.get_value("arg/children")
        composite = yield from self._find_sensor(composite_name)
        if self._kind_of(composite) != KIND_COMPOSITE:
            raise FacadeError(f"{composite_name!r} is not a composite service")
        self._track(composite)
        assigned = {}
        for child_name in child_names:
            assigned[child_name] = yield from self._add_child(
                composite, child_name, ctx)
        return assigned

    def _add_child(self, composite: ServiceItem, child_name: str,
                   parent_ctx: Optional[ServiceContext]):
        """Compose one child into ``composite``; returns its variable. Only
        the model sees ancestors, so it vetoes a cycle *before* the CSP is
        touched — a refused compose leaves no half-state."""
        child = yield from self._find_sensor(child_name)
        self._track(child)
        self.manager.check_acyclic(composite.service_id, child.service_id)
        variable = yield from self._exert_on(
            composite, OP_ADD_SERVICE,
            {"service_id": child.service_id, "name": child_name},
            parent_ctx=parent_ctx)
        try:
            self.manager.compose(composite.service_id, child.service_id)
        except NetworkModelError:
            pass  # edge already modelled (re-applied plan); the CSP is truth
        return variable

    def _op_add_expression(self, ctx):
        name = ctx.get_value("arg/name")
        expression = ctx.get_value("arg/expression")
        item = yield from self._find_sensor(name)
        yield from self._exert_on(item, OP_SET_EXPRESSION,
                                  {"expression": expression},
                                  parent_ctx=ctx)
        return True

    def _op_create_service(self, ctx):
        """Provision a brand-new composite onto the network (§VI step 3)."""
        name = ctx.get_value("arg/name")
        try:
            item = yield from self.provisioner.provision_composite(name)
        except ProvisionError as exc:
            raise FacadeError(str(exc)) from exc
        self._track(item)
        return {"name": name, "service_id": item.service_id}

    def _op_network_snapshot(self, ctx):
        return self.manager.snapshot()

    # -- network health (management plane) ------------------------------------------

    def _op_subscribe_health_alerts(self, ctx):
        """Surface SLO alerts as distributed events: every firing/resolved
        edge is pushed to ``arg/listener`` (typically a mailbox slot, so
        offline operators still get the full alert history)."""
        listener = ctx.get_value("arg/listener")
        from ..observability.health import health_monitor
        monitor = health_monitor(self.host.network)
        if not self._alerts_hooked:
            monitor.engine.subscribe(self._on_health_alert)
            self._alerts_hooked = True
        self._health_listeners.append(listener)
        return len(monitor.engine.alerts)

    def _on_health_alert(self, alert) -> None:
        self._health_sequence += 1
        event = HealthEvent(
            source=self.service_id, event_id=0,
            sequence=self._health_sequence,
            slo=alert.slo, state=alert.state, signal=alert.signal,
            threshold=alert.threshold, t=alert.t,
            description=alert.description)
        for listener in list(self._health_listeners):
            push_event(self.host, listener, event, kind="health-event")

    # -- composition plans and self-healing ----------------------------------------

    def _op_save_network_plan(self, ctx):
        """Capture the live composition state as a declarative plan.

        Save while the network is healthy; composites are visited
        leaves-first so nested composites re-form bottom-up on apply.
        """
        plan = CompositionPlan()
        for service_id in self.manager.composites_leaves_first():
            name = self.manager.name_of(service_id)
            item = yield from self._find_sensor(name)
            info = yield from self._exert_on(item, OP_GET_INFO, {},
                                             parent_ctx=ctx)
            plan.add(name, info.get("contained_services") or (),
                     info.get("expression"))
        return plan

    def _op_enable_self_healing(self, ctx):
        """Keep the network converged to the plan (§VII plug-and-play made
        durable: a re-provisioned, empty composite is re-composed)."""
        self._healing_plan = ctx.get_value("arg/plan")
        self._healing_interval = float(ctx.get_value("arg/interval", 5.0))
        if self._healing_proc is None:
            self._healing_proc = self.env.process(
                self._healing_loop(), name=f"facade-heal:{self.name}")
        return True

    def _healing_loop(self):
        while True:
            yield self.env.timeout(self._healing_interval)
            if not self.host.up:
                continue
            try:
                applied = yield from self._apply_plan(self._healing_plan)
                self.healing_actions += applied
            except Exception:  # repro: allow[SIM001] - healing outlives a failed pass
                continue

    def _apply_plan(self, plan: CompositionPlan):
        applied = 0
        for entry in plan.entries:
            try:
                applied += yield from self._apply_entry(entry)
            except FacadeError:
                pass  # one unreconcilable composite must not stall the rest
        return applied

    def _apply_entry(self, entry: PlanEntry):
        composite = yield from self._find_sensor(entry.composite)
        self._track(composite)
        listed = yield from self._exert_on(composite, OP_LIST_SERVICES, {})
        current = [record["name"] for record in listed]
        wanted = list(entry.children)
        if current != wanted[:len(current)]:
            raise FacadeError(
                f"{entry.composite!r} holds {current}, which conflicts with "
                f"the plan order {wanted}; cannot reconcile safely "
                "(variable bindings would shift)")
        actions = 0
        for child_name in wanted[len(current):]:
            yield from self._add_child(composite, child_name, None)
            actions += 1
        if entry.expression is not None:
            info = yield from self._exert_on(composite, OP_GET_INFO, {})
            if info.get("expression") != entry.expression:
                yield from self._exert_on(composite, OP_SET_EXPRESSION,
                                          {"expression": entry.expression})
                actions += 1
        return actions
