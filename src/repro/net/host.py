"""A simulated host: a named machine with ports, crash/recovery semantics and
failure listeners.

Hosts are where service providers, lookup services and cybernodes live. A
crashed host drops all inbound messages and cannot send; components hosted on
it learn about the crash through :meth:`Host.on_fail` callbacks (the way a
JVM's death takes its services with it)."""

from __future__ import annotations

from typing import Any, Callable

from ..sim import Environment
from .errors import HostDownError
from .message import Message
from .network import Network
from .wire import Protocol

__all__ = ["Host"]

#: Port handlers receive the delivered message.
PortHandler = Callable[[Message], None]


class Host:
    """A machine attached to the simulated network."""

    def __init__(self, network: Network, name: str):
        self.network = network
        self.name = name
        self.env: Environment = network.env
        self.up = True
        self._ports: dict[str, PortHandler] = {}
        self._fail_listeners: list[Callable[["Host"], None]] = []
        #: Per-host components created on first use (the RPC endpoint, the
        #: discovery manager, ...); same contract as ``Network.shared``.
        self.shared: dict[str, Any] = {}
        network.attach(self)

    # -- ports ------------------------------------------------------------

    def open_port(self, port: str, handler: PortHandler) -> None:
        if port in self._ports:
            raise ValueError(f"port {port!r} already open on {self.name}")
        self._ports[port] = handler

    def close_port(self, port: str) -> None:
        self._ports.pop(port, None)

    # -- sending -------------------------------------------------------------

    def send(self, dst: str, port: str, kind: str, payload: Any = None,
             protocol: Protocol = Protocol.TCP) -> None:
        """Fire-and-forget unicast."""
        self.network.send(Message(src=self.name, dst=dst, port=port,
                                  kind=kind, payload=payload, protocol=protocol))

    def multicast(self, group: str, port: str, kind: str, payload: Any = None) -> int:
        """Fire-and-forget multicast (UDP semantics)."""
        if not self.up:
            raise HostDownError(f"{self.name} is down")
        template = Message(src=self.name, dst="*", port=port, kind=kind,
                           payload=payload, protocol=Protocol.UDP)
        return self.network.multicast(group, template)

    def join_group(self, group: str) -> None:
        self.network.join_group(group, self.name)

    def leave_group(self, group: str) -> None:
        self.network.leave_group(group, self.name)

    # -- receiving --------------------------------------------------------------

    def _receive(self, msg: Message) -> None:
        if not self.up:
            return
        handler = self._ports.get(msg.port)
        if handler is None:
            # Silently dropped, like a closed UDP port / refused TCP connect.
            self.network.stats.dropped += 1
            return
        handler(msg)

    # -- lifecycle ----------------------------------------------------------------

    def on_fail(self, listener: Callable[["Host"], None]) -> None:
        """Register a callback invoked when this host crashes."""
        self._fail_listeners.append(listener)

    def fail(self) -> None:
        """Crash the host: ports keep their handlers but nothing is delivered
        or sent until :meth:`recover`."""
        if not self.up:
            return
        self.up = False
        for listener in list(self._fail_listeners):
            listener(self)

    def recover(self) -> None:
        """Bring the host back: sends and deliveries resume."""
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name} {'up' if self.up else 'DOWN'}>"
