"""Span recording by wrapping public entry points from outside the program.

The traced run swaps a timing wrapper in for a function or method,
keeps every span in memory as ``(name, start, end)`` and restores the
originals afterwards.  Spans are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

class _Busy:
    """Drive a coroutine step by step, adding the time of each step to ``ran[0]``."""

    def __init__(self, coro, ran: List[float]) -> None:
        self.coro, self.ran = coro, ran

    def __await__(self):
        coro, ran = self.coro, self.ran
        value, error = None, None
        while True:
            started = time.perf_counter()
            try:
                yielded = coro.throw(error) if error is not None else coro.send(value)
            except StopIteration as stop:
                ran[0] += time.perf_counter() - started
                return stop.value
            except BaseException:
                ran[0] += time.perf_counter() - started
                raise
            ran[0] += time.perf_counter() - started
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine, which decides
                value, error = None, exc


class Spans:
    """In-memory spans plus the undo list for the wrappers installed."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float]] = []
        #: name -> sum of the wrapped calls' integer results (bytes moved).
        self.totals: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def durations(self, name: str) -> List[float]:
        """Every recorded duration of ``name``, in seconds."""
        return [end - start for span, start, end in self.records if span == name]

    def _swap(self, owner: object, attr: str, wrapper: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of the synchronous ``owner.attr``."""
        original = getattr(owner, attr)
        records = self.records

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                records.append((name, start, time.perf_counter()))

        self._swap(owner, attr, timed)

    def wrap_async(
        self, owner: object, attr: str, name: str, total: bool = False, busy: bool = False
    ) -> None:
        """Time every await of the coroutine function ``owner.attr``.

        By default a span runs from the call to the result.  With
        ``busy`` it covers only the time the coroutine itself ran, not
        the time it was suspended waiting for I/O (a parse that waits
        for an idle keep-alive client is charged only for parsing).
        With ``total`` the integer results are summed under ``name``.
        """
        original = getattr(owner, attr)
        records, totals = self.records, self.totals

        @functools.wraps(original)
        async def timed(*args, **kwargs):
            start = time.perf_counter()
            ran = [0.0]
            try:
                if busy:
                    result = await _Busy(original(*args, **kwargs), ran)
                else:
                    result = await original(*args, **kwargs)
            finally:
                records.append((name, start, start + ran[0] if busy else time.perf_counter()))
            if total and isinstance(result, int):
                totals[name] = totals.get(name, 0) + result
            return result

        self._swap(owner, attr, timed)

    def wrap_queue_wait(self, queue_cls: type, name: str, only: Callable[[object], bool]) -> None:
        """Record each request's wait from ``offer`` to ``take``.

        ``only`` picks the queues to watch.
        """
        offer, take = queue_cls.offer, queue_cls.take
        records = self.records
        offered_at: Dict[int, float] = {}

        @functools.wraps(offer)
        def timed_offer(queue, request):
            accepted = offer(queue, request)
            if accepted and only(queue):
                offered_at[id(request)] = time.perf_counter()
            return accepted

        @functools.wraps(take)
        def timed_take(queue):
            request = take(queue)
            start: Optional[float] = offered_at.pop(id(request), None)
            if start is not None:
                records.append((name, start, time.perf_counter()))
            return request

        self._swap(queue_cls, "offer", timed_offer)
        self._swap(queue_cls, "take", timed_take)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, counts: Dict[str, float]) -> None:
        """Write the spans and the run's counts as one JSON document."""
        with open(path, "w") as out:
            json.dump(
                {
                    "spans": [[name, start, end] for name, start, end in self.records],
                    "totals": self.totals,
                    "counts": counts,
                },
                out,
            )
