"""Exertion space — a JavaSpaces-like tuple space for PULL federations.

Requestors (via the Spacer) *write* task envelopes; worker peers *take*
envelopes matching their capabilities, execute them and *write back*
results. Takes can run under a transaction: if the taker dies before
committing, the transaction manager aborts and the envelope is restored, so
no exertion is lost to a worker crash — the fault-tolerance half of the
space-based strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..jini.txn import Vote
from ..net.host import Host
from ..net.rpc import rpc_endpoint
from ..sim import Store
from .exertion import Task

__all__ = ["ExertionSpace", "SpaceTemplate", "Envelope", "EnvelopeState"]


class EnvelopeState(Enum):
    WAITING = "waiting"
    TAKEN = "taken"
    DONE = "done"


@dataclass(frozen=True)
class SpaceTemplate:
    """Matches envelopes by the task signature's coordinates (None = any)."""

    service_type: Optional[str] = None
    selector: Optional[str] = None
    provider_name: Optional[str] = None

    def matches(self, envelope: "Envelope") -> bool:
        sig = envelope.task.signature
        if self.service_type is not None and sig.service_type != self.service_type:
            return False
        if self.selector is not None and sig.selector != self.selector:
            return False
        if self.provider_name is not None and sig.provider_name != self.provider_name:
            return False
        return True


@dataclass
class Envelope:
    envelope_id: str
    task: Task
    state: EnvelopeState = EnvelopeState.WAITING
    result: Optional[Task] = None
    taken_by_txn: Optional[int] = None


class ExertionSpace:
    """The space service. Export with :func:`repro.net.rpc.rpc_endpoint`;
    register with the LUS via :func:`repro.jini.join.join_service`."""

    REMOTE_TYPES = ("ExertionSpace",)
    REMOTE_METHODS = ("write", "take", "read", "write_result", "take_result",
                      "prepare", "commit", "abort", "pending_count")

    def __init__(self, host: Host, name: str = "Exertion Space"):
        self.host = host
        self.env = host.env
        self.name = name
        self._envelopes: dict[str, Envelope] = {}
        #: Envelope ids available for take.
        self._pool = Store(host.env)
        #: Per-envelope completion events for result waiters.
        self._done_events: dict[str, list] = {}
        #: txn_id -> envelope ids taken under it.
        self._txn_takes: dict[int, list[str]] = {}
        self._endpoint = rpc_endpoint(host)
        self.ref = self._endpoint.export(self, f"space:{host.name}",
                                         methods=self.REMOTE_METHODS)

    # -- remote API -------------------------------------------------------------

    def write(self, task: Task) -> str:
        """Deposit a task; returns its envelope id."""
        envelope_id = self.host.network.ids.uuid()
        envelope = Envelope(envelope_id=envelope_id, task=task.copy())
        self._envelopes[envelope_id] = envelope
        self._pool.put(envelope_id)
        return envelope_id

    def take(self, template, txn_id: Optional[int] = None,
             timeout: float = 10.0):
        """Blocking take of an envelope matching the template — or *any* of
        a list of templates (generator). Returns the :class:`Envelope` or
        ``None`` on timeout."""
        templates = (list(template) if isinstance(template, (list, tuple))
                     else [template])
        get_ev = self._pool.get(
            lambda eid: any(t.matches(self._envelopes[eid])
                            for t in templates))
        timed = self.env.timeout(timeout, value=None)
        outcome = yield self.env.any_of([get_ev, timed])
        if not get_ev.triggered:
            get_ev.cancel()
            return None
        envelope = self._envelopes[get_ev.value]
        envelope.state = EnvelopeState.TAKEN
        if txn_id is not None:
            envelope.taken_by_txn = txn_id
            self._txn_takes.setdefault(txn_id, []).append(envelope.envelope_id)
        return envelope

    def read(self, template: SpaceTemplate) -> Optional[Envelope]:
        """Non-destructive read of the first waiting match (non-blocking)."""
        for eid in self._pool.peek_all():
            envelope = self._envelopes[eid]
            if template.matches(envelope):
                return envelope
        return None

    def write_result(self, envelope_id: str, result: Task) -> None:
        envelope = self._envelopes.get(envelope_id)
        if envelope is None:
            raise KeyError(f"unknown envelope {envelope_id!r}")
        envelope.result = result
        envelope.state = EnvelopeState.DONE
        for event in self._done_events.pop(envelope_id, []):
            event.succeed(result)

    def take_result(self, envelope_id: str, timeout: float = 30.0):
        """Blocking wait for an envelope's result (generator). Returns the
        resulting task or ``None`` on timeout."""
        envelope = self._envelopes.get(envelope_id)
        if envelope is None:
            raise KeyError(f"unknown envelope {envelope_id!r}")
        if envelope.state is EnvelopeState.DONE:
            self._envelopes.pop(envelope_id, None)
            return envelope.result
        event = self.env.event()
        self._done_events.setdefault(envelope_id, []).append(event)
        timed = self.env.timeout(timeout, value=None)
        yield self.env.any_of([event, timed])
        if not event.triggered:
            try:
                self._done_events.get(envelope_id, []).remove(event)
            except ValueError:
                pass
            return None
        self._envelopes.pop(envelope_id, None)
        return event.value

    def pending_count(self) -> int:
        return len(self._pool)

    def envelope_states(self) -> dict:
        """Local read view: envelope id -> :class:`EnvelopeState`, sorted."""
        return {envelope_id: envelope.state
                for envelope_id, envelope in sorted(self._envelopes.items())}

    def taking_transactions(self) -> list:
        """Local read view: ids of transactions still holding takes, sorted."""
        return sorted(self._txn_takes)

    # -- transaction participant ----------------------------------------------------

    def prepare(self, txn_id: int) -> Vote:
        if txn_id not in self._txn_takes:
            return Vote.NOTCHANGED
        return Vote.PREPARED

    def commit(self, txn_id: int) -> None:
        """Takes under this txn become permanent."""
        for envelope_id in self._txn_takes.pop(txn_id, []):
            envelope = self._envelopes.get(envelope_id)
            if envelope is not None:
                envelope.taken_by_txn = None

    def abort(self, txn_id: int) -> None:
        """Restore envelopes taken under this txn to the pool."""
        for envelope_id in self._txn_takes.pop(txn_id, []):
            envelope = self._envelopes.get(envelope_id)
            if envelope is None or envelope.state is EnvelopeState.DONE:
                continue
            envelope.state = EnvelopeState.WAITING
            envelope.taken_by_txn = None
            self._pool.put(envelope_id)
