"""Discrete-event simulation kernel.

A small, deterministic, SimPy-like engine. Everything in the SenSORCER
reproduction — the network, Jini discovery, Rio provisioning, the SORCER
exertion runtime and the sensor devices — runs as processes inside one
:class:`Environment`.

Design notes
------------
* Time is a float in simulated seconds. There is no wall clock anywhere.
* Events are scheduled on a binary heap (see :mod:`repro.sim.scheduler`)
  keyed by ``(time, priority, tie, seq)`` where ``seq`` is a monotonically
  increasing counter, which makes the execution order fully deterministic.
* A :class:`Process` wraps a generator. The generator yields :class:`Event`
  objects; when a yielded event triggers, the process resumes with the
  event's value (or the event's exception is thrown into the generator).
* Failed events that nobody waits on are raised out of :meth:`Environment.run`
  so tests surface unhandled simulation errors instead of silently
  swallowing them.
"""

from __future__ import annotations

import gc
import os
import random as _random
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

from .scheduler import HeapScheduler

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "StopSimulation",
]

#: Environment variable honoured by :class:`Environment` when no explicit
#: ``tie_break_seed`` is passed — lets a test run (or CI job) shuffle every
#: scenario it builds without threading a parameter through the builders.
SHUFFLE_SEED_ENV = "REPRO_SHUFFLE_SEED"

#: Priority for "urgent" events (process start-up and resumption).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1
#: Priority for observers that must see an instant *after* it settles
#: (management-plane beats). Priority ordering is preserved under tie-break
#: shuffling — only same-priority peers get reordered — so a LOW timeout is
#: a deterministic "run me last at this timestamp" request.
LOW = 2


class SimulationError(Exception):
    """Raised when the simulation itself is misused (not a modelled failure)."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` early.

    Its one argument is the target event whose processing stops the run.
    """


#: Sentinel distinguishing "not yet set" from a ``None`` event value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (succeed/fail called, callbacks scheduled) and *processed* (callbacks
    ran). Its value or exception is immutable once triggered.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set True when some process observed (yielded on) this event's
        #: failure, so the environment does not re-raise it.
        self._defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark this event's failure as handled, so the environment does not
        re-raise it — what a completion callback that deals with the
        exception itself calls (a process that yields on the event defuses
        it implicitly)."""
        self._defused = True

    # -- plumbing ----------------------------------------------------------

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            cb(self)
        if self._ok is False and not self._defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation.

    A subclass may add a ``name`` slot (as :class:`Process` has): the
    flight recorder labels a named event by it.
    """

    __slots__ = ("delay", "_seq")

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self._seq = env._schedule(self, priority, delay)

    def cancel(self) -> None:
        """Withdraw the timer: it is never dispatched and its callbacks are
        dropped, so cancel only a timer whose listeners are yours.
        Idempotent, and a no-op once the timer has fired."""
        if self.callbacks is not None:
            self.callbacks = None
            self.env._scheduler.cancel(self._seq)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout cannot be retriggered")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout cannot be retriggered")


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """Wraps a generator as a process; the process *is* an event that
    triggers with the generator's return value when it finishes."""

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        # Only the event the process yielded resumes it: it waits on one
        # event at a time, and nothing else holds its callback.
        self.env._active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as exc:
            self.env._active_process = None
            self._ok = True
            self._value = exc.value
            self.env._schedule(self, NORMAL)
            return
        except BaseException as exc:
            self.env._active_process = None
            self._ok = False
            self._value = exc
            self.env._schedule(self, NORMAL)
            return
        self.env._active_process = None
        if not isinstance(next_event, Event):
            # Thrown back in through the ordinary failure path, so a
            # generator that catches it carries on waiting on what it
            # yields next.
            next_event = Event(self.env).fail(SimulationError(
                f"process {self.name!r} yielded non-event {next_event!r}"))
        if next_event.callbacks is not None:
            next_event.callbacks.append(self._resume)
        else:
            # Already processed: resume immediately (respecting outcome).
            resume_ev = Event(self.env)
            resume_ev._ok = next_event._ok
            resume_ev._value = next_event._value
            if not next_event._ok:
                resume_ev._defused = True
            resume_ev.callbacks.append(self._resume)
            self.env._schedule(resume_ev, URGENT)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} alive={self._value is _PENDING}>"


class Condition(Event):
    """Triggers based on the outcomes of several child events."""

    __slots__ = ("events", "_evaluate", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 evaluate: Callable[[int, int], bool]):
        super().__init__(env)
        self.events = list(events)
        self._evaluate = evaluate
        self._done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._evaluate(len(self.events), self._done):
            self.succeed([ev._value for ev in self.events if ev.triggered])


class AllOf(Condition):
    """Triggers when *all* child events have triggered; fails on first failure."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda total, done: done == total)


class AnyOf(Condition):
    """Triggers as soon as *any* child event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda total, done: done >= 1)


class Environment:
    """The simulation environment: clock plus event queue.

    ``tie_break_seed`` enables the tie-break shuffle harness: ordering among
    events at identical ``(time, priority)`` is randomized by a
    seeded generator instead of strict scheduling order, while causal order
    (an event scheduled during another's execution runs after it) is
    preserved. Tests use it to prove results do not depend on the
    tie-breaker. When ``None``, the ``REPRO_SHUFFLE_SEED`` environment
    variable is consulted so whole suites can be shuffled externally.
    """

    def __init__(self, tie_break_seed: Optional[int] = None):
        self._now = 0.0
        self._scheduler = HeapScheduler()
        self._seq = count()
        self._active_process: Optional[Process] = None
        if tie_break_seed is None:
            from_env = os.environ.get(SHUFFLE_SEED_ENV)
            if from_env:
                tie_break_seed = int(from_env)
        self.tie_break_seed = tie_break_seed
        # The tie-break stream deliberately sits outside the substream
        # scheme: it must not perturb (or be perturbed by) model RNG.
        self._tie_rng = (_random.Random(tie_break_seed)  # repro: allow[DET005]
                         if tie_break_seed is not None else None)
        self._profiler = None
        #: Named state providers: section key -> zero-arg callable (see
        #: :meth:`register_state`).
        self._state_providers: dict[str, Callable[[], Any]] = {}

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling / execution ----------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> int:
        """Queue ``event``; returns the sequence number it is queued under."""
        seq = next(self._seq)
        tie = 0.0 if self._tie_rng is None else self._tie_rng.random()
        self._scheduler.push(self._now + delay, priority, tie, seq, event)
        return seq

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._scheduler.peek_time()

    def scheduler_stats(self) -> dict:
        """The pending-event heap's internals snapshot: ``kind``,
        ``pending`` and the ``pushes``/``pops``/``cancels`` totals.
        Read-only and wall-clock-free."""
        return self._scheduler.stats()

    def pending(self) -> list:
        """Every live pending occurrence as ``(time, priority, tie, seq,
        event)`` tuples in pop order, without disturbing the queue. The
        snapshot capture enumerates the event set through this."""
        return self._scheduler.entries()

    def register_state(self, key: str, provider: Callable[[], Any]) -> None:
        """Name ``provider`` the owner of state section ``key``.

        Every component that holds federation state registers here on the
        environment it already runs in; whoever wants the whole picture
        (a checkpoint, a debugger) walks :meth:`state_providers`. The
        kernel only keeps the table — it never calls a provider.

        Providers must be **non-mutating** (no counter moves, RNG draws or
        scheduling: a run is byte-identical whether or not anyone reads
        them), **deterministic** (same run, same sim time, same value) and
        return plain dicts/lists/strings/numbers (sets sorted by the
        provider). Keys are unique per environment: a duplicate means two
        components claim the same state (DESIGN §14), so it raises.
        """
        if key in self._state_providers:
            raise ValueError(f"state section {key!r} already registered")
        self._state_providers[key] = provider

    def state_providers(self) -> list:
        """All registered ``(key, provider)`` pairs in sorted key order."""
        return sorted(self._state_providers.items())

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._scheduler.size:
            raise SimulationError("nothing scheduled")
        when, _prio, _tie, _seq, event = self._scheduler.pop()
        self._now = when
        profiler = self._profiler
        if profiler is None:
            event._run_callbacks()
            return
        # Observed path: a flight recorder (``_profiler``, see
        # :mod:`repro.observability.profile`). Its ``enter``/``exit`` pair
        # brackets the callbacks; the kernel itself never reads a wall
        # clock and the recorder only observes, so event order is
        # bit-identical with or without it.
        profiler.enter(event)
        try:
            event._run_callbacks()
        finally:
            profiler.exit(event)

    @staticmethod
    def _stop(event: Event) -> None:
        """The callback :meth:`run` puts on its target event."""
        raise StopSimulation(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a number — run until simulated time reaches it (clock is advanced
          to exactly ``until`` even if no event lands there);
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).

        The cyclic garbage collector is paused while the dispatch loop
        runs and is re-enabled on every exit, however the run ends, if it
        was enabled on entry. A nested run leaves it paused, and a caller
        that had disabled it finds it still disabled. Reference counting
        still frees acyclic garbage at once; a cycle made during the run
        is collected by the first collection after it returns.
        """
        if isinstance(until, Event):
            target = until
            if target.callbacks is None:
                if not target._ok:
                    raise target._value
                return target._value
            target.callbacks.append(self._stop)
            deadline = float("inf")
        elif until is None:
            target = None
            deadline = float("inf")
        else:
            target = None
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"until={deadline} is in the past (now={self._now})")

        collecting = gc.isenabled()
        gc.disable()
        try:
            scheduler = self._scheduler
            while scheduler.size and scheduler.peek_time() <= deadline:
                self.step()
        except StopSimulation as stop:
            # A run nested in a callback may meet an outer run's stop:
            # only the run whose target fired returns here.
            ev = stop.args[0]
            if ev is not target:
                raise
            if not ev._ok:
                ev._defused = True
                raise ev._value
            return ev._value
        finally:
            if collecting:
                gc.enable()
            # A run that ends before its target fires must not leave its
            # stop callback behind for a later run to trip over.
            if target is not None and target.callbacks is not None:
                target.callbacks.remove(self._stop)
        if target is not None:
            raise SimulationError("run(until=event): queue drained before event triggered")
        if deadline != float("inf"):
            self._now = deadline
        return None
