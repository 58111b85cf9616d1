"""The surrogate-architecture framework — related work B (§III.B).

Blumenthal et al.'s component framework uses Sun's Jini *surrogate
architecture*: a resource-poor device cannot run a JVM, so a **surrogate**
object acts for it inside a **surrogate host** on the network; every
application request to the surrogate is forwarded to the device over its
interconnect.

The paper's critique, which this implementation makes measurable: "most of
the sensors generate data at a very fast rate, the service provided by the
single sensor should be capable of storing data to the local store. By
using the surrogate architecture, the sensors can be used in network
applications, but the effective use of such sensor node is questionable."
A surrogate has **no local store** — every ``getValue`` crosses the slow
device link and costs device energy, while an ESP answers from its buffer.
"""

from __future__ import annotations

from typing import Optional

from ..jini.entries import Name, SensorType
from ..jini.join import JoinManager, join_service
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from ..sensors.probe import SensorProbe
from ..sim import Environment, Resource

__all__ = ["DeviceLink", "SurrogateHost", "DeviceSurrogate"]


class DeviceLink:
    """The device-side interconnect the surrogate forwards over.

    Models a low-rate radio: a fixed ``ROUND_TRIP`` latency, one request at a
    time (the mote's single radio), and per-request energy cost charged to
    the device (if it exposes ``consume_read``-style accounting through its
    probe)."""

    ROUND_TRIP = 0.08

    def __init__(self, env: Environment):
        self.env = env
        self._radio = Resource(env, capacity=1)
        self.requests = 0

    def forward_read(self, probe: SensorProbe):
        """Carry one read request to the device and back (generator)."""
        grant = self._radio.request()
        yield grant
        try:
            yield self.env.timeout(self.ROUND_TRIP / 2)
            reading = yield self.env.process(probe.read())
            yield self.env.timeout(self.ROUND_TRIP / 2)
            self.requests += 1
            return reading
        finally:
            self._radio.release(grant)


class DeviceSurrogate:
    """The surrogate object: the device's stand-in on the network.

    Implements the same ``SensorDataAccessor``-ish reads as an ESP but with
    no buffer — each request is forwarded to the device live.
    """

    REMOTE_TYPES = ("SensorDataAccessor", "DeviceSurrogate")
    REMOTE_METHODS = ("getValue", "getInfo")

    def __init__(self, surrogate_host: "SurrogateHost", name: str,
                 probe: SensorProbe, link: DeviceLink):
        self.surrogate_host = surrogate_host
        self.env = surrogate_host.env
        self.name = name
        self.probe = probe
        self.link = link
        if not probe.connected:
            probe.connect()
        self.service_id = surrogate_host.host.network.ids.uuid()
        self.ref = surrogate_host.endpoint.export(
            self, f"surrogate:{self.service_id}", methods=self.REMOTE_METHODS)
        self._join: Optional[JoinManager] = None

    def start(self) -> "DeviceSurrogate":
        if self._join is None:
            teds = self.probe.teds
            self._join = join_service(
                self.surrogate_host.host, self.ref, self.service_id,
                (Name(self.name),
                 SensorType(quantity=teds.quantity, unit=teds.unit,
                            technology="surrogate")),
                lease_duration=10.0)
        return self

    # -- remote API (every call crosses the device link) -------------------------

    def getValue(self):
        reading = yield from self.link.forward_read(self.probe)
        return reading.value

    def getInfo(self):
        teds = self.probe.teds
        return {"name": self.name, "service_id": self.service_id,
                "service_type": "SURROGATE", "quantity": teds.quantity,
                "unit": teds.unit}


class SurrogateHost:
    """Hosts surrogates for devices that cannot join the network themselves."""

    def __init__(self, host: Host):
        self.host = host
        self.env = host.env
        self.endpoint = rpc_endpoint(host)
        self.surrogates: dict[str, DeviceSurrogate] = {}

    def activate(self, name: str, probe: SensorProbe,
                 link: Optional[DeviceLink] = None) -> DeviceSurrogate:
        """Load a device's surrogate (the 'export' step of the surrogate
        architecture) and join it to the lookup services."""
        if name in self.surrogates:
            raise ValueError(f"surrogate {name!r} already active")
        link = link if link is not None else DeviceLink(self.env)
        surrogate = DeviceSurrogate(self, name, probe, link)
        surrogate.start()
        self.surrogates[name] = surrogate
        return surrogate

    def deactivate(self, name: str):
        """Unload a surrogate (generator)."""
        surrogate = self.surrogates.pop(name, None)
        if surrogate is None:
            raise KeyError(f"no surrogate named {name!r}")
        if surrogate._join is not None:
            yield from surrogate._join.terminate()
        self.endpoint.unexport(f"surrogate:{surrogate.service_id}")
