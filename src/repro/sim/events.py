"""Primitive simulation events.

An :class:`Event` is a one-shot occurrence on the simulated timeline.
Processes wait on events by yielding them; arbitrary callbacks may also be
attached.  Events move through three states:

1. *untriggered* — created but not yet scheduled;
2. *triggered* — scheduled on the environment's event heap with a value
   (success) or an exception (failure);
3. *processed* — the environment popped it from the heap and invoked every
   callback.

Events are ``__slots__`` classes and the triggering paths push onto the
environment's heap directly: millions of them are created per simulated
run, so per-instance dict allocation and an extra scheduling call both
show up in end-to-end wall clock.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker for typing only
    from repro.sim.engine import Environment


Callback = Callable[["Event"], None]

#: Priority for events scheduled by ordinary user actions.
NORMAL_PRIORITY = 1
#: Priority for kernel-internal events that must run before user events
#: scheduled at the same instant (e.g. resource bookkeeping).
URGENT_PRIORITY = 0

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The environment this event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callback]] = []
        self._value: object = _PENDING
        self._ok: Optional[bool] = None
        #: True once some waiter takes responsibility for a failure, so
        #: the engine must not raise it as unhandled.
        self._defused = False

    def __repr__(self) -> str:
        state = (
            "untriggered"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return "<{} {} at t={:.6f}>".format(
            type(self).__name__, state, self.env.now
        )

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (``callbacks`` is discarded)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded; raises if untriggered."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> object:
        """The success value or failure exception carried by the event."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ---------------------------------------------------

    def succeed(self, value: object = None, delay: float = 0.0) -> "Event":
        """Schedule the event to occur successfully after ``delay``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered: {!r}".format(self))
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay={})".format(delay))
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        heappush(env._heap, (env._now + delay, NORMAL_PRIORITY, env._seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule the event to occur as a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError("event already triggered: {!r}".format(self))
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay={})".format(delay))
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        heappush(env._heap, (env._now + delay, NORMAL_PRIORITY, env._seq, self))
        return self

    # -- composition --------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])


class Timeout(Event):
    """An event that occurs a fixed delay after its creation.

    Created via :meth:`Environment.timeout`; triggers immediately on
    construction, so it cannot be failed or re-triggered.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if delay < 0:
            raise ValueError("negative timeout delay: {}".format(delay))
        # Inlined Event.__init__ plus scheduling: a Timeout is born
        # triggered, and this constructor dominates the engine's
        # allocation profile.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        env._seq += 1
        heappush(env._heap, (env._now + delay, NORMAL_PRIORITY, env._seq, self))

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            if event.callbacks is None:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        if self.triggered:
            # The condition already fired, but it still "owns" this
            # constituent: a late failure (e.g. an aborted connection
            # after an AnyOf timeout won) must not crash the event loop.
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            # The condition consumes the failure; stop the engine from
            # treating the source event as an unhandled error.
            event._defused = True
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        self._check(event)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> Dict[Event, object]:
        """Map of already-occurred constituent events to their values.

        Only *processed* events count: a :class:`Timeout` is triggered from
        birth, but it has not yet happened until the engine processes it.
        """
        return {
            event: event._value for event in self._events if event.processed
        }


class AnyOf(_Condition):
    """Triggers as soon as any constituent event succeeds."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers once every constituent event has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env, events)
        if not self.triggered and self._remaining == 0:
            self.succeed({})

    def _check(self, event: Event) -> None:
        if self._remaining == 0:
            self.succeed(self._collect())
