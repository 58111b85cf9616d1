"""Cybernode — Rio's compute resource agent.

A cybernode lives on a host, advertises a :class:`QosCapability`, and
instantiates service beans on request from the provision monitor. Services
it hosts run on *its* host: when the cybernode's machine dies, every hosted
service dies with it (and their registration leases lapse) — which is
exactly the failure the monitor then repairs elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..jini.entries import Name
from ..jini.join import JoinManager, join_service
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from .opstring import Deployment, ServiceElement
from .qos import QosCapability, QosRequirement

__all__ = ["Cybernode", "CapacityExceededError", "NodeStatus"]


class CapacityExceededError(Exception):
    """Instantiation refused: not enough free capacity or per-node limit."""


@dataclass
class NodeStatus:
    node_id: str
    compute_slots: float
    used_slots: float
    memory_mb: float
    used_memory_mb: float
    hosted: int
    tags: tuple = ()


class Cybernode:
    """Compute-resource service; registers with the LUS as type 'Cybernode'."""

    REMOTE_TYPES = ("Cybernode",)
    REMOTE_METHODS = ("status", "instantiate", "release", "ping")

    def __init__(self, host: Host, name: str = "Cybernode",
                 capability: Optional[QosCapability] = None,
                 lease_duration: float = 10.0):
        self.host = host
        self.env = host.env
        self.name = name
        self.capability = capability if capability is not None else QosCapability()
        self.node_id = host.network.ids.uuid()
        self.used_slots = 0.0
        self.used_memory_mb = 0.0
        #: service_id -> (element name, provider, load, memory)
        self._hosted: dict[str, tuple] = {}
        self._per_element: dict[str, int] = {}
        self._endpoint = rpc_endpoint(host)
        self.ref = self._endpoint.export(self, f"cybernode:{self.node_id}",
                                         methods=self.REMOTE_METHODS)
        self._join: Optional[JoinManager] = None
        self._lease_duration = lease_duration
        host.on_fail(self._on_host_fail)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Cybernode":
        if self._join is None:
            self._join = join_service(self.host, self.ref, self.node_id,
                                      (Name(self.name),),
                                      lease_duration=self._lease_duration)
        return self

    def _on_host_fail(self, host: Host) -> None:
        # The JVM died: hosted service beans are gone. Their registration
        # leases lapse on their own; we only reset local bookkeeping so a
        # recovered node starts empty.
        self._hosted.clear()
        self._per_element.clear()
        self.used_slots = 0.0
        self.used_memory_mb = 0.0

    # -- remote API -------------------------------------------------------------

    def ping(self) -> bool:
        return True

    def status(self) -> NodeStatus:
        return NodeStatus(
            node_id=self.node_id,
            compute_slots=self.capability.compute_slots,
            used_slots=self.used_slots,
            memory_mb=self.capability.memory_mb,
            used_memory_mb=self.used_memory_mb,
            hosted=len(self._hosted),
            tags=tuple(sorted(self.capability.tags)))

    def instantiate(self, element: ServiceElement, instance_name: str,
                    opstring_name: str):
        """Create a service bean for ``element``; returns its service id.

        A generator (run as a process by the RPC layer): instantiation has a
        small fixed cost, like a JVM class-loading/deploy step.
        """
        requirement: QosRequirement = element.qos
        if not requirement.satisfied_by(self.capability, self.used_slots,
                                        self.used_memory_mb):
            raise CapacityExceededError(
                f"{self.name}: cannot host {element.name!r} "
                f"(used {self.used_slots}/{self.capability.compute_slots} slots)")
        if self._per_element.get(element.name, 0) >= element.max_per_node:
            raise CapacityExceededError(
                f"{self.name}: max_per_node={element.max_per_node} reached "
                f"for {element.name!r}")
        yield self.env.timeout(0.05)  # deployment cost
        deployment = Deployment(opstring=opstring_name, element=element.name)
        provider = element.factory(self.host, instance_name, (deployment,))
        provider.start()
        self._hosted[provider.service_id] = (
            element.name, provider, requirement.load, requirement.memory_mb)
        self._per_element[element.name] = self._per_element.get(element.name, 0) + 1
        self.used_slots += requirement.load
        self.used_memory_mb += requirement.memory_mb
        return provider.service_id

    def release(self, service_id: str):
        """Destroy a hosted service bean (generator)."""
        entry = self._hosted.pop(service_id, None)
        if entry is None:
            raise KeyError(f"{self.name} does not host {service_id!r}")
        element_name, provider, load, memory = entry
        self._per_element[element_name] -= 1
        self.used_slots -= load
        self.used_memory_mb -= memory
        yield self.env.process(provider.destroy())
        return True
