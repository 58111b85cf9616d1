"""Bounded, deadline-aware admission in front of a provider.

The controller makes the shed decision in exactly two places, and
nowhere else (DESIGN §10):

* **reject-on-admit** — at arrival, when the request's deadline is
  already expired or the wait queue is at capacity. Rejection is
  *immediate* (no queue time burned) and carries a retry-after hint
  derived from the observed service time;
* **drop-expired-on-dequeue** — at dispatch, a queued request whose
  deadline died while waiting is failed without ever occupying an
  execution slot. Dead requests must not burn provider capacity: under
  saturation that capacity is precisely what keeps goodput above the
  floor.

Between those two points a request either executes or waits in the
(optionally weighted-fair) queue; admission never re-orders or times
out work on its own clock, so no timer processes exist to perturb the
deterministic schedule — waiters wake only from :meth:`release`.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..sorcer.rejection import Overloaded
from .dispatch import WeightedFairQueue

__all__ = ["AdmissionController"]

#: Rejection reasons get pre-registered counters so metric snapshots have
#: a stable shape whether or not a run ever sheds for that reason.
_REASONS = ("queue-full", "expired", "expired-in-queue")


class _Waiter:
    __slots__ = ("event", "tenant", "deadline", "enqueued")

    def __init__(self, event, tenant: str, deadline, enqueued: float):
        self.event = event
        self.tenant = tenant
        self.deadline = deadline
        self.enqueued = enqueued


class AdmissionController:
    """Bounded admission queue + slot pool for one provider.

    Attach as ``provider.admission``;
    :meth:`~repro.sorcer.provider.ServiceProvider.service` consults it
    around every exertion. ``fair`` plugs in a
    :class:`~repro.overload.dispatch.WeightedFairQueue`; without it the
    wait queue is plain FIFO.
    """

    #: Service time assumed before the first exertion is observed.
    DEFAULT_SERVICE_TIME = 0.1

    def __init__(self, env, name: str, registry, events=None,
                 max_inflight: int = 8, max_queue: int = 32,
                 fair: Optional[WeightedFairQueue] = None):
        if max_inflight < 1 or max_queue < 0:
            raise ValueError("need max_inflight >= 1 and max_queue >= 0")
        self.env = env
        self.name = name
        self.events = events
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.fair = fair
        self.inflight = 0
        self._fifo: deque = deque()
        #: EWMA of observed service time, seeding the retry-after hint.
        self._service_ewma = self.DEFAULT_SERVICE_TIME
        self._m_admitted = registry.counter("overload.admitted",
                                            provider=name)
        self._m_rejected = {
            reason: registry.counter("overload.rejected", provider=name,
                                     reason=reason)
            for reason in _REASONS}
        self._m_depth = registry.gauge("overload.queue_depth", provider=name)
        self._m_wait = registry.histogram("overload.queue_wait",
                                          provider=name)
        env.register_state(f"overload.admission.{name}",
                           self.checkpoint_state)

    def checkpoint_state(self) -> dict:
        """Snapshot section: admission gate plus fair-queue state."""
        state = dict(self.snapshot())
        if self.fair is not None:
            state["fair"] = self.fair.checkpoint_state()
        return state

    # -- queue plumbing (FIFO or weighted-fair) ---------------------------------

    def _queue_len(self) -> int:
        return len(self.fair) if self.fair is not None else len(self._fifo)

    def _enqueue(self, waiter: _Waiter) -> None:
        if self.fair is not None:
            self.fair.push(waiter.tenant, waiter)
        else:
            self._fifo.append(waiter)
        self._m_depth.set(self._queue_len())

    def _dequeue(self) -> Optional[_Waiter]:
        if self.fair is not None:
            return self.fair.pop()
        return self._fifo.popleft() if self._fifo else None

    # -- the two decision points ------------------------------------------------

    def _reject(self, reason: str, tenant: str,
                retry_after: float) -> Overloaded:
        self._m_rejected[reason].inc()
        exc = Overloaded(reason, retry_after=retry_after, tenant=tenant,
                         provider=self.name)
        if self.events is not None:
            self.events.emit("overload_shed", provider=self.name,
                             tenant=tenant, reason=reason,
                             retry_after=round(retry_after, 6))
        return exc

    def _retry_hint(self) -> float:
        """When the backlog ahead of a new arrival should have drained."""
        backlog = self._queue_len() + 1
        return round(backlog * self._service_ewma / self.max_inflight, 6)

    def acquire(self, tenant: str = "anonymous", deadline=None):
        """Admit one request (a generator — ``yield from`` it). Returns
        when an execution slot is held; raises :class:`Overloaded` when
        the request is shed instead."""
        now = self.env.now
        if deadline is not None and deadline.expired(now):
            raise self._reject("expired", tenant, 0.0)
        if self.inflight < self.max_inflight and self._queue_len() == 0:
            self.inflight += 1
            self._m_admitted.inc()
            return
        if self._queue_len() >= self.max_queue:
            raise self._reject("queue-full", tenant, self._retry_hint())
        waiter = _Waiter(self.env.event(), tenant, deadline, now)
        self._enqueue(waiter)
        outcome = yield waiter.event
        if isinstance(outcome, Overloaded):
            raise outcome
        self._m_wait.observe(self.env.now - waiter.enqueued)

    def release(self, service_time: Optional[float] = None) -> None:
        """Return one execution slot and dispatch from the queue."""
        self.inflight -= 1
        if service_time is not None and service_time >= 0:
            self._service_ewma += 0.2 * (service_time - self._service_ewma)
        self._dispatch()

    def _dispatch(self) -> None:
        now = self.env.now
        while self.inflight < self.max_inflight:
            waiter = self._dequeue()
            if waiter is None:
                break
            if waiter.deadline is not None and waiter.deadline.expired(now):
                # Died in the queue: shed without burning a slot.
                exc = self._reject("expired-in-queue", waiter.tenant, 0.0)
                waiter.event.succeed(exc)
                continue
            self.inflight += 1
            self._m_admitted.inc()
            waiter.event.succeed(None)
        self._m_depth.set(self._queue_len())

    # -- observability -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "provider": self.name,
            "inflight": self.inflight,
            "queued": self._queue_len(),
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "service_ewma": round(self._service_ewma, 6),
        }
