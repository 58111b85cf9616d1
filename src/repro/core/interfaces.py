"""SenSORCER remote interface names and operation selectors.

Remote types are matched by name in lookup templates (Jini semantics), so
the canonical strings live here. ``SensorDataAccessor`` is the common
interface every sensor provider (elementary or composite) implements
(§V.A); ``DataCollection`` is the probe-facing interface inside an ESP.
"""

from __future__ import annotations

__all__ = [
    "SENSOR_DATA_ACCESSOR",
    "DATA_COLLECTION",
    "ELEMENTARY_PROVIDER",
    "COMPOSITE_PROVIDER",
    "FACADE",
    "OP_GET_VALUE",
    "OP_GET_INFO",
    "OP_ADD_SERVICE",
    "OP_REMOVE_SERVICE",
    "OP_SET_EXPRESSION",
    "OP_LIST_SERVICES",
    "KIND_ELEMENTARY",
    "KIND_COMPOSITE",
]

#: Remote interface implemented by every sensor service.
SENSOR_DATA_ACCESSOR = "SensorDataAccessor"
#: Probe-facing collection interface (internal to an ESP).
DATA_COLLECTION = "DataCollection"
ELEMENTARY_PROVIDER = "ElementarySensorProvider"
COMPOSITE_PROVIDER = "CompositeSensorProvider"
FACADE = "SensorcerFacade"

# SensorDataAccessor selectors.
OP_GET_VALUE = "getValue"
OP_GET_INFO = "getInfo"

# Composite management selectors.
OP_ADD_SERVICE = "addService"
OP_REMOVE_SERVICE = "removeService"
OP_SET_EXPRESSION = "setExpression"
OP_LIST_SERVICES = "listServices"

KIND_ELEMENTARY = "ELEMENTARY"
KIND_COMPOSITE = "COMPOSITE"
