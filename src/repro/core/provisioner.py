"""Sensor service provisioner — SenSORCER's bridge to Rio (§V.B).

"A Sensor Service Provisioner provides for provisioning of sensor services
based on quality of service specified by requestors according to the Rio
framework": given a name and QoS, build an operational string around a
composite-provider factory, hand it to the provision monitor and wait until
the new service is discoverable (the paper's §VI step 3, provisioning
'New-Composite' onto the network).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..jini.entries import Name
from ..jini.template import ServiceTemplate
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from ..rio.opstring import OperationalString, ServiceElement
from ..rio.qos import QosRequirement
from ..sorcer.accessor import ServiceAccessor
from .csp import CompositeSensorProvider
from .interfaces import SENSOR_DATA_ACCESSOR

__all__ = ["SensorServiceProvisioner", "ProvisionError", "composite_factory"]

MONITOR_TYPE = "ProvisionMonitor"


class ProvisionError(Exception):
    """Provisioning could not complete (no monitor, no capacity, timeout)."""


def composite_factory(host: Host, instance_name: str, attributes: tuple):
    """Default factory: a fresh CSP on the target cybernode's host."""
    return CompositeSensorProvider(host, instance_name, attributes=attributes,
                                   lease_duration=10.0)


class SensorServiceProvisioner:
    """Requestor-side provisioning helper used by the façade."""

    DEFAULT_QOS = QosRequirement(load=1.0, memory_mb=64.0)
    VISIBILITY_TIMEOUT = 20.0  # seconds for a deployment to be discoverable

    def __init__(self, host: Host, accessor: Optional[ServiceAccessor] = None):
        self.host = host
        self.env = host.env
        self.accessor = accessor if accessor is not None else ServiceAccessor(host)
        self._endpoint = rpc_endpoint(host)

    def provision_sensor_service(self, name: str,
                                 factory: Callable = composite_factory,
                                 qos: Optional[QosRequirement] = None):
        """Deploy one instance of ``factory`` under ``name``; a generator
        returning the new service's :class:`ServiceItem`."""
        monitor_item = yield from self.accessor.find_one(
            ServiceTemplate.by_type(MONITOR_TYPE), wait=5.0)
        if monitor_item is None:
            raise ProvisionError("no provision monitor on the network")
        element = ServiceElement(
            name=name, factory=factory, planned=1,
            qos=qos if qos is not None else self.DEFAULT_QOS)
        opstring = OperationalString(f"sensorcer-{name}", [element])
        yield self._endpoint.call(monitor_item.service, "deploy", opstring,
                                  kind="provision-deploy", timeout=10.0)
        item = yield from self.accessor.find_one(
            ServiceTemplate(types=(SENSOR_DATA_ACCESSOR,),
                            attributes=(Name(name),)),
            wait=self.VISIBILITY_TIMEOUT)
        if item is None:
            raise ProvisionError(
                f"provisioned service {name!r} did not become visible within "
                f"{self.VISIBILITY_TIMEOUT}s")
        return item

    def provision_composite(self, name: str,
                            qos: Optional[QosRequirement] = None):
        """Provision a new, empty composite sensor provider (§VI step 3)."""
        item = yield from self.provision_sensor_service(
            name, factory=composite_factory, qos=qos)
        return item
