"""SenSORCER core — the paper's primary contribution (§V).

Elementary sensor providers wrap probes; composite providers aggregate
them with runtime compute-expressions over dynamically created variables;
the façade is the single management entry point; the browser is the
zero-install service UI; the provisioner allocates new sensor services via
Rio.
"""

from .browser import BrowserError, SensorBrowser
from .csp import STALE_PATH, CompositeSensorProvider, CompositionError
from .esp import ElementarySensorProvider
from .events import SensorReadingEvent, Subscription
from .facade import FacadeError, SensorcerFacade
from .interfaces import (
    COMPOSITE_PROVIDER,
    DATA_COLLECTION,
    ELEMENTARY_PROVIDER,
    FACADE,
    KIND_COMPOSITE,
    KIND_ELEMENTARY,
    OP_ADD_SERVICE,
    OP_GET_INFO,
    OP_GET_VALUE,
    OP_LIST_SERVICES,
    OP_REMOVE_SERVICE,
    OP_SET_EXPRESSION,
    SENSOR_DATA_ACCESSOR,
)
from .manager import NetworkModelError, SensorNetworkManager
from .plan import CompositionPlan, PlanEntry
from .provisioner import (
    ProvisionError,
    SensorServiceProvisioner,
    composite_factory,
)
from .variables import variable_index, variable_name

__all__ = [
    "BrowserError",
    "COMPOSITE_PROVIDER",
    "CompositeSensorProvider",
    "CompositionError",
    "CompositionPlan",
    "PlanEntry",
    "DATA_COLLECTION",
    "ELEMENTARY_PROVIDER",
    "ElementarySensorProvider",
    "FACADE",
    "FacadeError",
    "KIND_COMPOSITE",
    "KIND_ELEMENTARY",
    "NetworkModelError",
    "OP_ADD_SERVICE",
    "OP_GET_INFO",
    "OP_GET_VALUE",
    "OP_LIST_SERVICES",
    "OP_REMOVE_SERVICE",
    "OP_SET_EXPRESSION",
    "ProvisionError",
    "SENSOR_DATA_ACCESSOR",
    "STALE_PATH",
    "SensorBrowser",
    "SensorNetworkManager",
    "SensorReadingEvent",
    "Subscription",
    "SensorServiceProvisioner",
    "SensorcerFacade",
    "composite_factory",
    "variable_index",
    "variable_name",
]
