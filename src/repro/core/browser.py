"""Sensor Browser — the zero-install service UI (§V.B, Fig 2/3).

The browser follows MVC: the *model* is the network configuration data
fetched through the façade; *views* render it (here: text panes mirroring
the Inca X screenshots — service list, sensor-service information, sensor
values); the *controller* issues façade requests. It is deliberately thin:
"the service UI just takes the input from the user and gives back result
from the SenSORCER network" (§VII).
"""

from __future__ import annotations

from typing import Optional

from ..jini.template import ServiceTemplate
from ..net.errors import NetworkError
from ..net.host import Host
from ..sorcer.accessor import ServiceAccessor
from ..sorcer.exerter import Exerter, ExertionFailed
from ..sorcer.signature import Signature
from .interfaces import FACADE

__all__ = ["SensorBrowser", "BrowserError"]


class BrowserError(Exception):
    """The browser could not complete a request."""


class SensorBrowser:
    """User agent attached to a SenSORCER façade."""

    def __init__(self, host: Host, facade_name: Optional[str] = None):
        self.host = host
        self.env = host.env
        self.exerter = Exerter(host)
        self.accessor: ServiceAccessor = self.exerter.accessor
        self.facade_name = facade_name
        #: The MVC model: refreshed by controller actions.
        self.model: dict = {"sensors": [], "values": {}, "info": None,
                            "topology": {"nodes": [], "edges": []},
                            "entries": None}

    # -- controller -----------------------------------------------------------------

    def _facade_call(self, selector: str, args: dict):
        # Shed, not broken: Overloaded passes through typed (with its
        # retry-after hint) instead of becoming a generic browser failure.
        try:
            value = yield from self.exerter.call(
                Signature(FACADE, selector, provider_name=self.facade_name),
                args, name=f"browser-{selector}",
                context=f"browser->{selector}")
        except ExertionFailed as exc:
            raise BrowserError(
                f"{selector} failed: {exc.exceptions}") from None
        return value

    def get_sensor_list(self):
        sensors = yield from self._facade_call("listSensors", {})
        self.model["sensors"] = sensors
        return sensors

    def get_value(self, name: str):
        value = yield from self._facade_call("getValue", {"name": name})
        self.model["values"][name] = value
        return value

    def get_values(self, names: list):
        """Batch read: one façade call, concurrent collection."""
        values = yield from self._facade_call("getValues", {"names": names})
        self.model["values"].update(values)
        return values

    def get_all_values(self):
        """Refresh the 'Sensor Value' pane for every known sensor."""
        if not self.model["sensors"]:
            yield from self.get_sensor_list()
        names = [sensor["name"] for sensor in self.model["sensors"]]
        values = yield from self.get_values(names)
        return dict(values)

    def get_info(self, name: str):
        info = yield from self._facade_call("getSensorInfo", {"name": name})
        self.model["info"] = info
        return info

    def compose_service(self, composite: str, children: list):
        assigned = yield from self._facade_call(
            "composeService", {"composite": composite, "children": children})
        return assigned

    def add_expression(self, name: str, expression: str):
        result = yield from self._facade_call(
            "addExpression", {"name": name, "expression": expression})
        return result

    def create_service(self, name: str):
        created = yield from self._facade_call("createService", {"name": name})
        return created

    def watch(self, names: list, interval: float = 5.0, rounds: int = 6):
        """Sample the named services periodically; returns and stores the
        time series (generator)."""
        series = {name: [] for name in names}
        for _ in range(rounds):
            values = yield from self.get_values(names)
            for name in names:
                series[name].append((self.env.now, values.get(name)))
            yield self.env.timeout(interval)
        self.model["watch"] = series
        return series

    def render_watch_pane(self) -> str:
        """Time-series pane: one row per sample, one column per service."""
        series = self.model.get("watch")
        if not series:
            return "Watch\n(no watch data)"
        names = sorted(series)
        lines = ["Watch", "=" * 40,
                 "t (s)      " + "  ".join(f"{n:>18}" for n in names)]
        length = max(len(points) for points in series.values())
        for row in range(length):
            cells = []
            stamp = None
            for name in names:
                points = series[name]
                if row < len(points):
                    stamp, value = points[row]
                    cells.append(f"{value:18.3f}" if isinstance(value, float)
                                 else f"{'-':>18}")
                else:
                    cells.append(f"{'-':>18}")
            lines.append(f"{stamp:9.1f}  " + "  ".join(cells))
        return "\n".join(lines)

    def registry_admin(self):
        """Fetch the raw registration table from every known registrar
        (the Fig 2 Admin tab)."""
        out = {}
        # Registrar discovery order is deterministic (insertion-ordered dict).
        for lus_id, ref in list(  # repro: allow[DET003]
                self.accessor.discovery.registrars.items()):
            try:
                rows = yield self.exerter._endpoint.call(
                    ref, "registrations", kind="lus-admin", timeout=3.0)
            except NetworkError:
                continue
            out[lus_id] = rows
        self.model["admin"] = out
        return out

    def render_admin_pane(self) -> str:
        admin = self.model.get("admin")
        if not admin:
            return "Admin\n(no registrar data)"
        lines = ["Admin — registrations", "=" * 60]
        for lus_id, rows in admin.items():
            lines.append(f"registrar {lus_id[:13]}...")
            for row in sorted(rows, key=lambda r: r["name"] or ""):
                remaining = row["lease_remaining"]
                lease = f"{remaining:6.1f}s" if remaining is not None else "   ?  "
                lines.append(f"  {row['name']:<26} {row['host']:<16} "
                             f"lease {lease}")
        return "\n".join(lines)

    def save_network_plan(self):
        plan = yield from self._facade_call("saveNetworkPlan", {})
        return plan

    #: Seconds between the façade's convergence passes.
    SELF_HEALING_INTERVAL = 2.0

    def enable_self_healing(self, plan):
        result = yield from self._facade_call(
            "enableSelfHealing",
            {"plan": plan, "interval": self.SELF_HEALING_INTERVAL})
        return result

    def get_attributes(self, name: str):
        """Fetch a service's attribute entries (the Fig 2 'Entry Value'
        pane) straight from the lookup service."""
        from ..jini.entries import Name as NameEntry
        item = yield from self.accessor.find_one(
            ServiceTemplate(attributes=(NameEntry(name),)), wait=3.0)
        if item is None:
            raise BrowserError(f"no service named {name!r} on the network")
        self.model["entries"] = (name, item.service_id, item.attributes)
        return item.attributes

    def refresh_topology(self):
        snapshot = yield from self._facade_call("networkSnapshot", {})
        self.model["topology"] = snapshot
        return snapshot

    def subscribe_health_alerts(self, listener):
        """Route SLO alert edges to ``listener`` (a RemoteRef with a
        ``notify`` method — hand it a mailbox slot to read them later)."""
        result = yield from self._facade_call("subscribeHealthAlerts",
                                              {"listener": listener})
        return result

    # -- views ------------------------------------------------------------------------

    def render_service_list(self) -> str:
        """The left-hand services pane of Fig 2."""
        lines = ["Sensor Services", "=" * 40]
        for sensor in self.model["sensors"]:
            lines.append(f"  {sensor['name']:<24} [{sensor['service_type']}]")
        if not self.model["sensors"]:
            lines.append("  (no sensor services discovered)")
        return "\n".join(lines)

    def render_info_pane(self) -> str:
        """The 'Sensor Service Information' pane of Fig 2/3."""
        info = self.model.get("info")
        if not info:
            return "Sensor Service Information\n(no service selected)"
        lines = [
            "Sensor Service Information",
            "=" * 40,
            f"Sensor Name:: {info['name']}",
            f"Service Type:: {info['service_type']}",
            f"Service ID:: {info['service_id']}",
            "Contained Services: " + ", ".join(info.get("contained_services") or []),
            f"Compute Expression: {info.get('expression') or ''}",
        ]
        return "\n".join(lines)

    def render_values_pane(self) -> str:
        """The 'Sensor Value' pane of Fig 3."""
        lines = ["Sensor Value", "=" * 40]
        for name in sorted(self.model["values"]):
            value = self.model["values"][name]
            rendered = f"{value:.3f}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<24} {rendered}")
        if not self.model["values"]:
            lines.append("  (no values read)")
        return "\n".join(lines)

    def render_entries_pane(self) -> str:
        """Attribute entries, rendered like Fig 2's 'Entry / Value' table
        (``Location.floor   3`` and so on)."""
        if not self.model.get("entries"):
            return "Entry Value\n(no service selected)"
        name, service_id, attributes = self.model["entries"]
        lines = [f"Entry Value — {name} ({service_id[:13]}...)", "=" * 40]
        import dataclasses
        for entry in attributes:
            entry_name = type(entry).__name__
            for field in dataclasses.fields(entry):
                value = getattr(entry, field.name)
                if value is not None:
                    lines.append(f"  {entry_name}.{field.name:<14} {value}")
        if len(lines) == 2:
            lines.append("  (no attributes)")
        return "\n".join(lines)

    def render_topology(self) -> str:
        """Logical sensor network tree (Fig 3's composition view)."""
        topo = self.model["topology"]
        names = {n["service_id"]: n["name"] for n in topo["nodes"]}
        children: dict = {}
        contained = set()
        for edge in topo["edges"]:
            children.setdefault(edge["parent"], []).append(edge["child"])
            contained.add(edge["child"])
        lines = ["Logical Sensor Network", "=" * 40]

        def walk(node_id: str, depth: int) -> None:
            lines.append("  " * depth + f"- {names.get(node_id, node_id)}")
            for child in sorted(children.get(node_id, []),
                                key=lambda c: names.get(c, c)):
                walk(child, depth + 1)

        roots = [n["service_id"] for n in topo["nodes"]
                 if n["service_id"] not in contained]
        for root in sorted(roots, key=lambda r: names.get(r, r)):
            walk(root, 0)
        if not topo["nodes"]:
            lines.append("  (empty)")
        return "\n".join(lines)
