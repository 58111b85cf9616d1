"""Shared-resource primitives built on the event kernel.

:class:`Store` is an unbounded FIFO of items with blocking ``get`` (used
for the exertion space's pool).
:class:`Resource` models a counted resource with blocking ``request`` (used
for cybernode capacity slots).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .core import Environment, Event, SimulationError

__all__ = ["Store", "StoreGet", "StorePut", "Resource", "ResourceRequest"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`. The store is unbounded, so the
    item is stored and the event triggered at once, before waiting gets
    are served."""

    __slots__ = ()

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        store.items.append(item)
        self.succeed()
        store._dispatch()


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; triggers with a matching item."""

    __slots__ = ("predicate", "_store_ref")

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]):
        super().__init__(store.env)
        self.predicate = predicate
        store._get_queue.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw this get request if it has not been satisfied yet."""
        if not self.triggered:
            try:
                self._store_ref._get_queue.remove(self)
            except (ValueError, AttributeError):
                pass


class Store:
    """FIFO item store with optionally filtered, blocking ``get``.

    ``get(predicate)`` returns an event that triggers with the *first* item
    (in insertion order) satisfying the predicate. Items that match no
    waiter stay queued.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.items: deque[Any] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        ev = StoreGet(self, predicate)
        ev._store_ref = self
        return ev

    def peek_all(self) -> list[Any]:
        """Non-blocking snapshot of currently stored items."""
        return list(self.items)

    def _dispatch(self) -> None:
        # Satisfy waiting gets in arrival order.
        progressed = True
        while progressed:
            progressed = False
            for get in list(self._get_queue):
                match_idx = None
                for idx, item in enumerate(self.items):
                    if get.predicate is None or get.predicate(item):
                        match_idx = idx
                        break
                if match_idx is not None:
                    item = self.items[match_idx]
                    del self.items[match_idx]
                    self._get_queue.remove(get)
                    get.succeed(item)
                    progressed = True


class ResourceRequest(Event):
    """Event returned by :meth:`Resource.request`; triggers when granted."""

    __slots__ = ()

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        resource._queue.append(self)
        resource._dispatch()


class Resource:
    """A counted resource: at most ``capacity`` outstanding grants."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[ResourceRequest] = []
        self._queue: deque[ResourceRequest] = deque()

    def request(self) -> ResourceRequest:
        return ResourceRequest(self)

    def release(self, request: ResourceRequest) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that was never granted")
        self._dispatch()

    def _dispatch(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            req = self._queue.popleft()
            self.users.append(req)
            req.succeed()
