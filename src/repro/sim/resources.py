"""Contention primitives: resources, containers, and stores.

These model the three kinds of sharing the cluster simulation needs:

- :class:`Resource` — a server with integer capacity (e.g. a disk channel,
  a worker-process slot); requests queue FIFO.
- :class:`PriorityResource` — like :class:`Resource` but the queue orders
  by (priority, arrival); used where QoS classes contend directly.
- :class:`Container` — a homogeneous quantity (e.g. bytes of buffer-cache
  budget) with put/get of amounts.
- :class:`Store` — a queue of distinct Python objects handed from
  producer to consumer processes; supports bounded capacity.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, List

from repro.sim.events import URGENT_PRIORITY, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on exit
    """

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._order = resource._next_order()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A server with fixed integer capacity and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got {}".format(capacity))
        self.env = env
        self._capacity = int(capacity)
        self._users: List[Request] = []
        self._queue: List[Request] = []
        self._order = 0

    def __repr__(self) -> str:
        return "<{} users={}/{} queued={}>".format(
            type(self).__name__, len(self._users), self._capacity, len(self._queue)
        )

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneous holders."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Claim one unit of capacity; the returned event fires when granted."""
        req = Request(self, priority)
        self._queue.append(req)
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit of capacity."""
        if request in self._users:
            self._users.remove(request)
            self._dispatch()
        else:
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        if request in self._queue:
            self._queue.remove(request)

    def _select(self) -> Request:
        return self._queue[0]

    def _dispatch(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            req = self._select()
            self._queue.remove(req)
            self._users.append(req)
            req._ok = True
            req._value = req
            self.env.schedule(req, delay=0.0, priority=URGENT_PRIORITY)


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue orders by (priority, arrival).

    Lower ``priority`` values are served first.
    """

    def _select(self) -> Request:
        return min(self._queue, key=lambda r: (r.priority, r._order))


class Container:
    """A homogeneous divisible quantity with blocking put/get."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = math.inf,
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self._capacity = float(capacity)
        self._level = float(init)
        self._getters: List[tuple] = []
        self._putters: List[tuple] = []
        self._order = 0

    @property
    def level(self) -> float:
        """Amount currently stored."""
        return self._level

    @property
    def capacity(self) -> float:
        """Maximum amount storable."""
        return self._capacity

    def put(self, amount: float) -> Event:
        """Add ``amount``; blocks (event pends) while it would overflow."""
        if amount <= 0:
            raise ValueError("put amount must be positive")
        event = Event(self.env)
        self._order += 1
        self._putters.append((self._order, amount, event))
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; blocks while insufficient quantity stored."""
        if amount <= 0:
            raise ValueError("get amount must be positive")
        event = Event(self.env)
        self._order += 1
        self._getters.append((self._order, amount, event))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                order, amount, event = self._putters[0]
                if self._level + amount <= self._capacity:
                    self._putters.pop(0)
                    self._level += amount
                    event.succeed(amount)
                    progressed = True
            if self._getters:
                order, amount, event = self._getters[0]
                if amount <= self._level:
                    self._getters.pop(0)
                    self._level -= amount
                    event.succeed(amount)
                    progressed = True


class Store:
    """A FIFO queue of distinct objects with optional bounded capacity."""

    def __init__(self, env: "Environment", capacity: float = math.inf) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self._items: List[Any] = []
        self._getters: List[Event] = []
        self._putters: List[tuple] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def capacity(self) -> float:
        """Maximum number of stored items."""
        return self._capacity

    @property
    def items(self) -> List[Any]:
        """The stored items, oldest first (read-only view by convention)."""
        return self._items

    def put(self, item: Any) -> Event:
        """Append ``item``; pends while the store is full."""
        event = Event(self.env)
        self._putters.append((item, event))
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if len(self._items) + len(self._putters) >= self._capacity:
            return False
        self.put(item)
        return True

    def get(self) -> Event:
        """Remove and return the oldest item; pends while empty."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        while self._putters and len(self._items) < self._capacity:
            item, event = self._putters.pop(0)
            self._items.append(item)
            event.succeed(item)
        while self._getters and self._items:
            event = self._getters.pop(0)
            event.succeed(self._items.pop(0))
        # Draining items may have freed space for more putters.
        while self._putters and len(self._items) < self._capacity:
            item, event = self._putters.pop(0)
            self._items.append(item)
            event.succeed(item)
            while self._getters and self._items:
                getter = self._getters.pop(0)
                getter.succeed(self._items.pop(0))
