"""Sensor network manager — the model of the logical sensor network.

Tracks which sensor services exist and how composites contain them, as a
directed acyclic graph held in plain insertion-ordered dicts: an edge
``parent -> child`` means the composite ``parent`` aggregates ``child``.
The façade updates this model as it executes management requests, and the
sensor browser renders it — the M of the browser's MVC (§V.B).
"""

from __future__ import annotations

from .interfaces import KIND_COMPOSITE

__all__ = ["SensorNetworkManager", "NetworkModelError"]


class NetworkModelError(Exception):
    """Invalid logical-network mutation (cycle, unknown node, duplicate)."""


class SensorNetworkManager:
    """In-memory DAG of the logical sensor network."""

    def __init__(self):
        #: service_id -> {"name", "kind"} in registration order, and each
        #: service's children as an ordered set (composition order).
        self._services: dict[str, dict] = {}
        self._children: dict[str, dict] = {}

    # -- nodes ------------------------------------------------------------------

    def register_service(self, service_id: str, name: str, kind: str) -> None:
        if service_id in self._services:
            # Idempotent refresh of metadata.
            self._services[service_id].update(name=name, kind=kind)
            return
        self._services[service_id] = {"name": name, "kind": kind}
        self._children[service_id] = {}

    def name_of(self, service_id: str) -> str:
        self._require(service_id)
        return self._services[service_id]["name"]

    # -- composition edges ----------------------------------------------------------

    def check_acyclic(self, parent_id: str, child_id: str) -> None:
        """Refuse an edge that would close a cycle. Only the model can — a
        composite sees its children, not its ancestors — so the façade asks
        before it touches the composite."""
        self._require(parent_id)
        self._require(child_id)
        if parent_id in self._descendants(child_id):
            raise NetworkModelError(
                f"composing {self.name_of(child_id)!r} into "
                f"{self.name_of(parent_id)!r} would create a cycle")

    def compose(self, parent_id: str, child_id: str) -> None:
        self.check_acyclic(parent_id, child_id)
        if parent_id == child_id:
            raise NetworkModelError("a composite cannot contain itself")
        if child_id in self._children[parent_id]:
            raise NetworkModelError(
                f"{self.name_of(child_id)!r} already composed in "
                f"{self.name_of(parent_id)!r}")
        self._children[parent_id][child_id] = None

    def children_of(self, service_id: str) -> list[str]:
        self._require(service_id)
        return sorted(self._children[service_id])

    def composites_leaves_first(self) -> list[str]:
        """Composites, each after every composite it contains — the order a
        saved plan re-forms them in. The reverse of a breadth-first
        topological order that takes roots in registration order and
        children in composition order."""
        waiting = dict.fromkeys(self._services, 0)
        for children in self._children.values():
            for child in children:
                waiting[child] += 1
        order = [n for n, parents in waiting.items() if parents == 0]
        for node in order:  # grows while iterated: a FIFO frontier
            for child in self._children[node]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    order.append(child)
        return [n for n in reversed(order)
                if self._services[n]["kind"] == KIND_COMPOSITE]

    # -- snapshot ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "nodes": [{"service_id": n, **self._services[n]}
                      for n in sorted(self._services)],
            "edges": [{"parent": parent, "child": child}
                      for parent in sorted(self._children)
                      for child in sorted(self._children[parent])],
        }

    def _descendants(self, service_id: str) -> set[str]:
        seen: set[str] = set()
        stack = [service_id]
        while stack:
            for child in self._children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def _require(self, service_id: str) -> None:
        if service_id not in self._services:
            raise NetworkModelError(f"unknown service {service_id!r}")
