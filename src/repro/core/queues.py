"""Per-subscriber request queues (§3.3-3.4).

"Each customer ... is allocated a per-subscriber request queue. ...
Requests within a queue are serviced in a FIFO order."  Queues are
bounded; when a queue is full, newly arriving requests are dropped —
this is where Table 1's "Dropped" column comes from.

Scale notes: queues are stored in a flat list indexed by the interned
subscriber id (:class:`~repro.core.subscriber.SubscriberTable`), and the
collection tracks two id sets the scheduler needs to stay O(active):

- the **backlogged set** — ids of queues holding at least one request,
  maintained on empty↔non-empty transitions so the spare pass never
  scans idle queues;
- the **activity set** — ids touched by an ``offer``/``requeue`` since
  the scheduler last drained it, so a settled (idle, fully-refilled)
  subscriber re-enters the scheduling walk the cycle it gets traffic.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set

from repro.core.subscriber import Subscriber, SubscriberTable
from repro.telemetry.registry import get_registry


class RequestQueue:
    """The FIFO queue of one subscriber's pending requests."""

    def __init__(self, subscriber: Subscriber) -> None:
        self.subscriber = subscriber
        #: Dense interned id; -1 until registered with SubscriberQueues.
        self.sid = -1
        #: The owning collection, for backlog/activity bookkeeping.
        self._owner: Optional["SubscriberQueues"] = None
        self._items: Deque[object] = deque()
        self.arrived = 0
        self.dropped = 0
        self.dispatched = 0
        self.requeued = 0
        registry = get_registry()
        self._occupancy = registry.gauge(
            "repro.core.queue_occupancy", subscriber=subscriber.name
        )
        self._drop_counter = registry.counter(
            "repro.core.queue_drops", subscriber=subscriber.name
        )
        self._arrival_counter = registry.counter(
            "repro.core.queue_arrivals", subscriber=subscriber.name
        )

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return "<RequestQueue {} len={} dropped={}>".format(
            self.subscriber.name, len(self._items), self.dropped
        )

    @property
    def backlogged(self) -> bool:
        """True if at least one request is waiting."""
        return bool(self._items)

    def offer(self, request: object) -> bool:
        """Enqueue a request; False (and a drop) if the queue is full.

        The bound is the subscriber's *effective* capacity, which folds
        in any delay-bounded admission target.
        """
        self.arrived += 1
        self._arrival_counter.inc()
        if len(self._items) >= self.subscriber.effective_queue_capacity:
            self.dropped += 1
            self._drop_counter.inc()
            return False
        self._items.append(request)
        self._occupancy.set(len(self._items))
        if self._owner is not None:
            self._owner.note_enqueue(self.sid)
        return True

    def requeue(self, request: object) -> None:
        """Return a dispatched-but-unserviced request to the queue head.

        Used by node-failure recovery: the request was already admitted
        (and counted) once, so it bypasses the admission bound and does
        not increment ``arrived`` — dropping it here would turn a
        back-end crash into a silent QoS violation.
        """
        self.requeued += 1
        self._items.appendleft(request)
        self._occupancy.set(len(self._items))
        if self._owner is not None:
            self._owner.note_enqueue(self.sid)

    def peek(self) -> Optional[object]:
        """The request at the head, without removing it."""
        return self._items[0] if self._items else None

    def take(self) -> object:
        """Remove and return the head request."""
        if not self._items:
            raise IndexError("queue {} is empty".format(self.subscriber.name))
        self.dispatched += 1
        item = self._items.popleft()
        self._occupancy.set(len(self._items))
        if not self._items and self._owner is not None:
            self._owner.note_emptied(self.sid)
        return item

    def clear(self) -> List[object]:
        """Drop every queued request (deregistration); returns them."""
        items = list(self._items)
        self._items.clear()
        self._occupancy.set(0)
        if items and self._owner is not None:
            self._owner.note_emptied(self.sid)
        return items


class SubscriberQueues:
    """The RDN's collection of per-subscriber queues, in visit order.

    ``table`` is the shared :class:`SubscriberTable`; passing the same
    instance to the accounting and the classifier gives every component
    the same dense id for a name.  When omitted the collection owns a
    private table (and releases ids on :meth:`unregister` itself).
    """

    def __init__(self, table: Optional[SubscriberTable] = None) -> None:
        self._queues: Dict[str, RequestQueue] = {}
        self._owns_table = table is None
        self.table = table if table is not None else SubscriberTable()
        #: id → queue; None marks an unregistered (or foreign-id) slot.
        self._by_id: List[Optional[RequestQueue]] = []
        #: Live ids in ascending order (== registration order sans churn).
        self._sorted_ids: List[int] = []
        #: Ids of queues with at least one pending request.
        self._backlogged_ids: Set[int] = set()
        #: Ids touched by offer/requeue since the last drain_activity().
        self._activity: Set[int] = set()
        #: Registration hooks: called as fn(queue) after (un)register.
        self.on_register: List[Callable[[RequestQueue], None]] = []
        self.on_unregister: List[Callable[[RequestQueue], None]] = []

    def __len__(self) -> int:
        return len(self._queues)

    def __iter__(self) -> Iterator[RequestQueue]:
        """Queues in visit (ascending-id) order."""
        by_id = self._by_id
        for sid in self._sorted_ids:
            queue = by_id[sid]
            if queue is not None:
                yield queue

    def __contains__(self, name: str) -> bool:
        return name in self._queues

    def register(self, subscriber: Subscriber) -> RequestQueue:
        """Allocate the queue for a new subscriber."""
        if subscriber.name in self._queues:
            raise RuntimeError("subscriber {!r} already registered".format(subscriber.name))
        queue = RequestQueue(subscriber)
        sid = self.table.intern(subscriber.name)
        queue.sid = sid
        queue._owner = self
        self._queues[subscriber.name] = queue
        while len(self._by_id) <= sid:
            self._by_id.append(None)
        self._by_id[sid] = queue
        self._insort_id(sid)
        self._activity.add(sid)
        for hook in self.on_register:
            hook(queue)
        return queue

    def unregister(self, name: str) -> Optional[RequestQueue]:
        """Remove a subscriber's queue (churn); pending requests are dropped.

        Returns the removed queue (its dropped requests are retrievable
        via the queue object), or None if the name was never registered.
        The interned id is released for reuse only when this collection
        owns its table; with a shared table the release belongs to the
        coordinating layer (the RDN), after every component let go.
        """
        queue = self._queues.pop(name, None)
        if queue is None:
            return None
        queue.clear()
        sid = queue.sid
        self._by_id[sid] = None
        self._remove_id(sid)
        self._backlogged_ids.discard(sid)
        self._activity.discard(sid)
        for hook in self.on_unregister:
            hook(queue)
        queue._owner = None
        if self._owns_table:
            self.table.release(name)
        return queue

    def get(self, name: str) -> Optional[RequestQueue]:
        """The queue for ``name``, or None."""
        return self._queues.get(name)

    def get_by_id(self, sid: int) -> Optional[RequestQueue]:
        """The queue for a dense subscriber id, or None."""
        if 0 <= sid < len(self._by_id):
            return self._by_id[sid]
        return None

    def sorted_ids(self) -> List[int]:
        """Live queue ids in visit order (ascending; do not mutate)."""
        return self._sorted_ids

    def backlogged(self) -> List[RequestQueue]:
        """Queues with at least one pending request, in visit order.

        O(backlogged log backlogged): built from the maintained backlog
        id set, never by scanning the full (possibly 10⁵-wide) table.
        """
        by_id = self._by_id
        out: List[RequestQueue] = []
        for sid in sorted(self._backlogged_ids):
            queue = by_id[sid]
            if queue is not None:
                out.append(queue)
        return out

    def subscribers(self) -> List[Subscriber]:
        """All registered subscribers, in visit order."""
        return [queue.subscriber for queue in self]

    # -- scheduler bookkeeping ---------------------------------------------

    def note_enqueue(self, sid: int) -> None:
        """A queue gained an item: mark it backlogged and active."""
        self._backlogged_ids.add(sid)
        self._activity.add(sid)

    def note_emptied(self, sid: int) -> None:
        """A queue ran empty: leave the backlogged set."""
        self._backlogged_ids.discard(sid)

    def drain_activity(self) -> List[int]:
        """Ids touched since the last drain; clears the set."""
        if not self._activity:
            return []
        out = list(self._activity)
        self._activity.clear()
        return out

    def _insort_id(self, sid: int) -> None:
        ids = self._sorted_ids
        if not ids or sid > ids[-1]:
            ids.append(sid)
            return
        bisect.insort(ids, sid)

    def _remove_id(self, sid: int) -> None:
        ids = self._sorted_ids
        index = bisect.bisect_left(ids, sid)
        if index < len(ids) and ids[index] == sid:
            del ids[index]
