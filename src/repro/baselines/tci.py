"""The Jini TCI/SSP/ASP framework — related work A (§III.A).

Bertocco et al.'s three-level architecture, reimplemented as the comparison
baseline:

* **TCI** (Terminal Communication Interface) — virtualizes access to the
  sensors physically wired to it; the only component talking to sensors,
  and the only Jini-registered leaf;
* **SSP** (Sensor Service Provider) — contacts TCIs and arranges their data
  "in a more structured way";
* **ASP** (Application Service Provider) — the *only* point of access,
  offering a fixed menu of aggregate queries over a configuration frozen at
  construction time.

The limitations the paper calls out are faithfully present: clients cannot
pick sensors or computations (only the ASP's fixed operations over its
fixed sensor set), re-grouping sensors means deploying a *new* ASP, and
there is no provisioning."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..jini.entries import Name
from ..jini.join import join_service
from ..jini.template import ServiceTemplate
from ..net.errors import NetworkError
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from ..sensors.probe import ProbeError, SensorProbe
from ..sorcer.accessor import ServiceAccessor

__all__ = ["TerminalCommunicationInterface", "TciSensorServiceProvider",
           "ApplicationServiceProvider"]

TCI_TYPE = "TCI"
SSP_TYPE = "TciSSP"
ASP_TYPE = "TciASP"


class TerminalCommunicationInterface:
    """Level 1: consistent access to the sensors wired to this terminal."""

    REMOTE_TYPES = (TCI_TYPE,)
    REMOTE_METHODS = ("read", "read_all")

    def __init__(self, host: Host, name: str, probes: dict):
        self.host = host
        self.env = host.env
        self.name = name
        self.probes: dict[str, SensorProbe] = dict(probes)
        for probe in self.probes.values():
            if not probe.connected:
                probe.connect()
        self._endpoint = rpc_endpoint(host)
        self.service_id = host.network.ids.uuid()
        self.ref = self._endpoint.export(self, f"tci:{self.service_id}",
                                         methods=self.REMOTE_METHODS)
        self._join = None

    def start(self) -> "TerminalCommunicationInterface":
        if self._join is None:
            self._join = join_service(self.host, self.ref, self.service_id,
                                      (Name(self.name),), lease_duration=10.0)
        return self

    # -- remote API -------------------------------------------------------------

    def read(self, sensor_key: str):
        probe = self.probes.get(sensor_key)
        if probe is None:
            raise KeyError(f"{self.name} has no sensor {sensor_key!r}")
        reading = yield self.env.process(probe.read())
        return reading.value

    def read_all(self):
        out = {}
        for key in sorted(self.probes):
            try:
                out[key] = yield from self.read(key)
            except ProbeError:
                out[key] = None
        return out


class TciSensorServiceProvider:
    """Level 2: collects TCI data into a structured form."""

    REMOTE_TYPES = (SSP_TYPE,)
    REMOTE_METHODS = ("collect",)

    def __init__(self, host: Host, name: str = "SSP"):
        self.host = host
        self.env = host.env
        self.name = name
        self.accessor = ServiceAccessor(host)
        self._endpoint = rpc_endpoint(host)
        self.service_id = host.network.ids.uuid()
        self.ref = self._endpoint.export(self, f"ssp:{self.service_id}",
                                         methods=self.REMOTE_METHODS)
        self._join = None

    def start(self) -> "TciSensorServiceProvider":
        if self._join is None:
            self._join = join_service(self.host, self.ref, self.service_id,
                                      (Name(self.name),), lease_duration=10.0)
        return self

    def collect(self):
        """Structured snapshot: {tci name: {sensor: value}} (generator)."""
        tcis = yield from self.accessor.find_items(
            ServiceTemplate.by_type(TCI_TYPE), max_matches=64)
        structured = {}
        for item in sorted(tcis, key=lambda i: i.name() or ""):
            try:
                values = yield self._endpoint.call(item.service, "read_all",
                                                   kind="tci-read", timeout=5.0)
            except NetworkError:
                continue
            structured[item.name()] = values
        return structured


class ApplicationServiceProvider:
    """Level 3: the single access point with fixed aggregate queries.

    The configuration (which sensors participate) is frozen at construction;
    changing it requires deploying a replacement ASP — the rigidity the
    paper contrasts with CSP runtime re-composition."""

    REMOTE_TYPES = (ASP_TYPE,)
    REMOTE_METHODS = ("query",)

    #: The fixed operation menu; no client-supplied expressions.
    OPERATIONS = ("mean", "min", "max", "count")

    def __init__(self, host: Host, name: str = "ASP",
                 include_sensors: Optional[list] = None):
        self.host = host
        self.env = host.env
        self.name = name
        #: None = all sensors; otherwise a frozen allowlist of sensor keys.
        self.include_sensors = (None if include_sensors is None
                                else frozenset(include_sensors))
        self.accessor = ServiceAccessor(host)
        self._endpoint = rpc_endpoint(host)
        self.service_id = host.network.ids.uuid()
        self.ref = self._endpoint.export(self, f"asp:{self.service_id}",
                                         methods=self.REMOTE_METHODS)
        self._join = None

    def start(self) -> "ApplicationServiceProvider":
        if self._join is None:
            self._join = join_service(self.host, self.ref, self.service_id,
                                      (Name(self.name),), lease_duration=10.0)
        return self

    def destroy(self):
        """Tear down (generator) — needed before deploying a replacement."""
        if self._join is not None:
            yield from self._join.terminate()
            self._join = None
        self._endpoint.unexport(f"asp:{self.service_id}")

    def query(self, operation: str):
        """Aggregate over the frozen sensor set (generator)."""
        if operation not in self.OPERATIONS:
            raise ValueError(
                f"ASP offers only {self.OPERATIONS}; no custom computations")
        ssps = yield from self.accessor.find_items(
            ServiceTemplate.by_type(SSP_TYPE), max_matches=16)
        if not ssps:
            raise LookupError("no SSP on the network")
        values: list[float] = []
        for item in ssps:
            structured = yield self._endpoint.call(item.service, "collect",
                                                   kind="ssp-collect",
                                                   timeout=15.0)
            for tci_values in structured.values():
                for key, value in tci_values.items():
                    if value is None:
                        continue
                    if (self.include_sensors is not None
                            and key not in self.include_sensors):
                        continue
                    values.append(value)
        if not values:
            raise RuntimeError("no sensor data collected")
        if operation == "mean":
            return float(np.mean(values))
        if operation == "min":
            return float(np.min(values))
        if operation == "max":
            return float(np.max(values))
        return len(values)
