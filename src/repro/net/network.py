"""The simulated network: hosts, unicast/multicast delivery, partitions and
traffic accounting.

Replaces the physical LAN of the paper's SORCER Lab deployment. Delivery is
asynchronous: :meth:`Network.send` schedules the message for the destination
after the latency model's delay; partitions and link filters silently drop
messages (exactly what a requestor on a real network would observe — hence
Jini's leases and timeouts on top).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..sim import Environment, Timeout
from ..util.ids import IdSource
from .errors import HostDownError, UnreachableError
from .latency import LanLatency, LatencyModel
from .message import Message

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host

__all__ = ["Network", "TrafficStats", "LinkDecision", "BernoulliLoss"]


@dataclass(frozen=True)
class LinkDecision:
    """Verdict of a link filter about one in-flight message.

    ``drop`` suppresses delivery (counted in :attr:`TrafficStats.dropped`);
    ``extra_delay`` is added to the latency model's draw (reordering falls
    out of unequal extra delays); ``copies`` schedules duplicate deliveries,
    one per entry, each offset from the (delayed) base delivery time.
    """

    drop: bool = False
    extra_delay: float = 0.0
    copies: tuple = ()


class BernoulliLoss:
    """Link filter dropping each message independently with one
    probability: ``net.add_link_filter(BernoulliLoss(rng, 0.1))``."""

    _DROP = LinkDecision(drop=True)

    def __init__(self, rng: np.random.Generator, probability: float):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0, 1]")
        self.rng = rng
        self.probability = probability

    def __call__(self, msg: Message) -> Optional[LinkDecision]:
        return self._DROP if self.rng.random() < self.probability else None


class _Delivery(Timeout):
    """One message in flight: the single kernel event that fires at its
    arrival instant. ``name`` (``deliver:<kind>``) is what the flight
    recorder calls it."""

    __slots__ = ("msg", "name")

    def __init__(self, network: "Network", msg: Message, delay: float,
                 name: str):
        super().__init__(network.env, delay)
        self.msg = msg
        self.name = name
        self.callbacks.append(network._arrive_callback)


@dataclass
class TrafficStats:
    """Cumulative traffic counters, overall and per message ``kind``."""

    messages: int = 0
    payload_bytes: int = 0
    header_bytes: int = 0
    dropped: int = 0
    by_kind: dict = field(default_factory=lambda: defaultdict(
        lambda: {"messages": 0, "payload_bytes": 0, "header_bytes": 0}))
    #: Per-host link accounting: host -> {"sent": bytes, "received": bytes,
    #: "sent_messages": n, "received_messages": n}. "received" counts bytes
    #: addressed to the host (its ingress link carries them even if the
    #: host later drops them).
    by_host: dict = field(default_factory=lambda: defaultdict(
        lambda: {"sent": 0, "received": 0,
                 "sent_messages": 0, "received_messages": 0}))

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.header_bytes

    def record(self, msg: Message) -> None:
        self.messages += 1
        self.payload_bytes += msg.payload_bytes
        self.header_bytes += msg.header_bytes
        slot = self.by_kind[msg.kind]
        slot["messages"] += 1
        slot["payload_bytes"] += msg.payload_bytes
        slot["header_bytes"] += msg.header_bytes
        total = msg.total_bytes
        sender = self.by_host[msg.src]
        sender["sent"] += total
        sender["sent_messages"] += 1
        receiver = self.by_host[msg.dst]
        receiver["received"] += total
        receiver["received_messages"] += 1

    def host_bytes(self, host: str) -> dict:
        return dict(self.by_host[host])

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "payload_bytes": self.payload_bytes,
            "header_bytes": self.header_bytes,
            "total_bytes": self.total_bytes,
            "dropped": self.dropped,
            "by_kind": {k: dict(v) for k, v in self.by_kind.items()},
        }


class Network:
    """Connects :class:`~repro.net.host.Host` instances.

    Parameters
    ----------
    env:
        The simulation environment.
    rng:
        Source of randomness for default latency model.
    latency:
        Pluggable delay model; the default is a lab LAN.
    """

    def __init__(self, env: Environment,
                 rng: Optional[np.random.Generator] = None,
                 latency: Optional[LatencyModel] = None):
        self.env = env
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.latency = latency if latency is not None else LanLatency(self.rng)
        self.ids = IdSource(np.random.default_rng(self.rng.integers(2**32)))
        self.hosts: dict[str, "Host"] = {}
        self.groups: dict[str, set[str]] = defaultdict(set)
        #: Unordered host-name pairs that cannot currently talk.
        self._cut_links: set[frozenset] = set()
        #: Ordered (src, dst) pairs cut in one direction only — asymmetric
        #: partitions (e.g. A hears B but B no longer hears A).
        self._cut_directed: set[tuple] = set()
        self.stats = TrafficStats()
        #: Instrumentation taps: callables invoked with every sent message
        #: (after sizes are finalized, before loss/partition decisions).
        self._taps: list = []
        #: Link filters: the one per-message perturbation hook (random
        #: loss, chaos links); each returns ``None`` or a
        #: :class:`LinkDecision`.
        self._link_filters: list = []
        # Every delivery shares one bound method, made here once.
        self._arrive_callback = self._arrive
        #: Per-network components, keyed by a public name and created on
        #: first use by their owner's accessor (``tracer_of(net)``, ...); a
        #: reader that must not create one looks the key up.
        self.shared: dict[str, Any] = {}
        env.register_state("net", self.checkpoint_state)

    def checkpoint_state(self) -> dict:
        """Snapshot section: topology, partitions, traffic, RNG positions."""
        return {
            "cut_directed": sorted(list(pair) for pair in self._cut_directed),
            "cut_links": sorted(sorted(pair) for pair in self._cut_links),
            "groups": {name: sorted(members)
                       for name, members in sorted(self.groups.items())},
            "hosts": {name: {"up": host.up}
                      for name, host in sorted(self.hosts.items())},
            "ids_issued": self.ids.issued,
            "rng": self.rng.bit_generator.state,
            "traffic": self.stats.snapshot(),
        }

    def tap(self, fn) -> None:
        """Register a message observer (benchmark instrumentation)."""
        self._taps.append(fn)

    def untap(self, fn) -> None:
        try:
            self._taps.remove(fn)
        except ValueError:
            pass

    def add_link_filter(self, fn) -> None:
        """Register a link filter: ``fn(msg) -> LinkDecision | None``.

        Filters see every message that passed the sender and partition
        checks, in registration order, and may drop, delay or duplicate it.
        Duplicates do not pass back through the filters (no recursive
        chaos)."""
        self._link_filters.append(fn)

    def remove_link_filter(self, fn) -> None:
        try:
            self._link_filters.remove(fn)
        except ValueError:
            pass

    # -- membership ---------------------------------------------------------

    def attach(self, host: "Host") -> None:
        if host.name in self.hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host

    # -- multicast groups -----------------------------------------------------

    def join_group(self, group: str, host_name: str) -> None:
        self.groups[group].add(host_name)

    def leave_group(self, group: str, host_name: str) -> None:
        self.groups[group].discard(host_name)

    # -- partitions -----------------------------------------------------------

    def cut_link(self, a: str, b: str) -> None:
        """Make ``a`` and ``b`` mutually unreachable until healed."""
        self._cut_links.add(frozenset((a, b)))

    def heal_link(self, a: str, b: str) -> None:
        self._cut_links.discard(frozenset((a, b)))

    def partition(self, side_a: list[str], side_b: list[str]) -> None:
        for a in side_a:
            for b in side_b:
                self.cut_link(a, b)

    def heal_partition(self, side_a: list[str], side_b: list[str]) -> None:
        for a in side_a:
            for b in side_b:
                self.heal_link(a, b)

    def cut_link_directed(self, src: str, dst: str) -> None:
        """Cut only the ``src`` → ``dst`` direction (asymmetric partition):
        ``dst`` can still reach ``src``."""
        self._cut_directed.add((src, dst))

    def heal_link_directed(self, src: str, dst: str) -> None:
        self._cut_directed.discard((src, dst))

    def reachable(self, src: str, dst: str) -> bool:
        return (frozenset((src, dst)) not in self._cut_links
                and (src, dst) not in self._cut_directed)

    # -- delivery ---------------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Send ``msg`` asynchronously. Never blocks; never reports failure.

        Raises :class:`HostDownError` only if the *sender* is down (a crashed
        host cannot transmit) and :class:`UnreachableError` for an unknown
        destination name — both are programming-model errors, not in-flight
        losses.
        """
        sender = self.hosts.get(msg.src)
        if sender is None or not sender.up:
            raise HostDownError(f"sender {msg.src!r} is down or unknown")
        if msg.dst not in self.hosts:
            raise UnreachableError(f"unknown destination {msg.dst!r}")
        msg.finalize_sizes()
        msg.sent_at = self.env.now
        self.stats.record(msg)
        for tap in self._taps:
            tap(msg)
        if not self.reachable(msg.src, msg.dst):
            self.stats.dropped += 1
            return
        extra_delay = 0.0
        copies: list = []
        for flt in self._link_filters:
            decision = flt(msg)
            if decision is None:
                continue
            if decision.drop:
                self.stats.dropped += 1
                return
            extra_delay += decision.extra_delay
            copies.extend(decision.copies)
        delay = self.latency.delay(msg.src, msg.dst, msg.total_bytes) + extra_delay
        _Delivery(self, msg, delay, f"deliver:{msg.kind}")
        for stagger in copies:
            dup = Message(
                src=msg.src, dst=msg.dst, port=msg.port, kind=msg.kind,
                payload=msg.payload, protocol=msg.protocol,
                payload_bytes=msg.payload_bytes,
                header_bytes=msg.header_bytes, sized=True)
            dup.sent_at = msg.sent_at
            self.stats.record(dup)
            _Delivery(self, dup, delay + stagger, f"deliver-dup:{msg.kind}")

    def multicast(self, group: str, msg_template: Message) -> int:
        """Deliver a copy of the message to every group member except the
        sender. Returns the number of copies sent."""
        count = 0
        msg_template.finalize_sizes()  # size the identical payload once
        for member in sorted(self.groups.get(group, ())):
            if member == msg_template.src:
                continue
            copy = Message(
                src=msg_template.src, dst=member, port=msg_template.port,
                kind=msg_template.kind, payload=msg_template.payload,
                protocol=msg_template.protocol,
                payload_bytes=msg_template.payload_bytes,
                header_bytes=msg_template.header_bytes, sized=True)
            self.send(copy)
            count += 1
        return count

    def _arrive(self, delivery: _Delivery) -> None:
        msg = delivery.msg
        host = self.hosts.get(msg.dst)
        if host is None or not host.up:
            self.stats.dropped += 1
            return
        host._receive(msg)
