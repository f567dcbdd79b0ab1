"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot synchronisation object.  It starts *pending*,
may later be *triggered* (scheduled with a value or an exception), and is
finally *processed* when the :class:`~repro.sim.core.Environment` pops it from
the event heap and invokes its callbacks.  Every simulated activity is a
callback chain: each link is a callback that does its work and appends the
next link to the :attr:`Event.callbacks` of the event it waits on.

The module also defines :class:`Timeout` (an event that triggers after a
simulated delay) and the two waits a chain needs beyond a plain append:
:func:`when_processed` (wait on one event that may already have been
processed) and :func:`when_all_processed` (wait on a list of events one at a
time, in list order).  There are no composite events: code that needs to
wait on two things registers one callback on each.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class _Pending:
    """Sentinel type for the value of an event that has not been triggered."""

    __slots__ = ()

    def __reduce__(self) -> str:
        # Pickled by name, so an unpickled event still compares its value
        # against the one sentinel by identity.
        return "PENDING"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Unique sentinel used as the value of untriggered events.
PENDING = _Pending()

#: Scheduling priority for urgent events (processed before normal events at
#: the same simulation time).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Event:
    """A one-shot event that may succeed with a value or fail with an exception.

    Parameters
    ----------
    env:
        The environment the event lives in.

    Notes
    -----
    The lifecycle is ``pending -> triggered -> processed``.  Callbacks (added
    by appending callables to :attr:`callbacks`) are invoked with the event as
    their sole argument when the event is processed.  After processing,
    :attr:`callbacks` is ``None`` and adding further callbacks is an error.

    Events are the single most allocated object of a simulation run, so the
    whole hierarchy declares ``__slots__``; subclasses outside the kernel may
    still add a ``__dict__`` by simply not declaring slots of their own.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set to ``True`` by a handler to indicate that a failure has been
        #: dealt with and must not be re-raised by the environment.
        self.defused = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled (has a value or exception)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded; only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event (or its exception if it failed)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value* and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined ``env.schedule(self)``: triggering is one of the hottest
        # call sites of a run, and the scheduling body is three lines.
        env = self.env
        env._eid = eid = env._eid + 1
        env._push((env._now, NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        env._push((env._now, NORMAL, eid, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a simulated *delay*.

    Parameters
    ----------
    env:
        The owning environment.
    delay:
        Non-negative delay in simulated time units (seconds throughout this
        project).
    value:
        Optional value the timeout succeeds with.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        # Timeouts are the most allocated event of a simulation run: the
        # fields are set inline (no ``super().__init__`` / ``env.schedule``
        # call chain).
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        env._eid = eid = env._eid + 1
        env._push((env._now + delay, NORMAL, eid, self))


def when_processed(event: Event, link: Callable[[Event], Any]) -> None:
    """Call *link* with *event* when it is processed, at once if it already was.

    The chain form of waiting on an event that may already have fired: an
    event still pending (or triggered but not yet processed) gets *link*
    appended to its callbacks; a processed one has no callback list left,
    so *link* runs now, inside the caller's callback.
    """
    callbacks = event.callbacks
    if callbacks is None:
        link(event)
    else:
        callbacks.append(link)


class _InOrder:
    """The walk of :func:`when_all_processed`.

    A small object with a bound-method link rather than a closure that
    refers to itself: once the last event is processed nothing refers to the
    walk, so reference counting frees it (and whatever its events hold) at
    once, even while cyclic collection is paused.
    """

    __slots__ = ("events", "index", "link")

    def __init__(self, events: Sequence[Event], link: Callable[[Sequence[Event]], Any]) -> None:
        self.events = events
        self.index = 0
        self.link = link

    def step(self, _event: Optional[Event] = None) -> None:
        events = self.events
        index = self.index
        while index < len(events):
            callbacks = events[index].callbacks
            index += 1
            if callbacks is not None:
                self.index = index
                callbacks.append(self.step)
                return
        self.link(events)


def when_all_processed(events: Sequence[Event], link: Callable[[Sequence[Event]], Any]) -> None:
    """Call *link* with *events* once every one of them is processed.

    The events are waited on one at a time, in list order: the walk
    registers on the first event not yet processed, passes processed events
    straight on, and calls *link* inside the callback of the last event to
    be processed (or at once, if all of them already were).
    """
    _InOrder(events, link).step()
