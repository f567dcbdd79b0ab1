"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot synchronisation object.  It starts *pending*,
may later be *triggered* (scheduled with a value or an exception), and is
finally *processed* when the :class:`~repro.sim.core.Environment` pops it from
the event heap and invokes its callbacks.  Processes (see
:mod:`repro.sim.process`) wait on events by yielding them from their
generator.

The module also defines :class:`Timeout` (an event that triggers after a
simulated delay), :class:`Condition` with the :class:`AllOf`/:class:`AnyOf`
helpers (composite events), and :class:`Interrupt` (the exception thrown into
a process when it is interrupted).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class _Pending:
    """Sentinel type for the value of an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Unique sentinel used as the value of untriggered events.
PENDING = _Pending()

#: Scheduling priority for urgent events (processed before normal events at
#: the same simulation time).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Interrupt(Exception):
    """Exception thrown into a process when :meth:`Process.interrupt` is called.

    The optional *cause* (accessible via :attr:`cause`) carries arbitrary
    user data describing why the interruption happened, e.g. a shrink request
    from the malleability manager.
    """

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`, or ``None``."""
        return self.args[0] if self.args else None


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

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state (ok/value) of another *event*.

        Used as a callback to chain events together.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._eid = eid = env._eid + 1
        env._push((env._now, NORMAL, eid, self))

    # -- composition -----------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

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

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        # Timeouts are the most allocated event of a simulation run: the
        # fields are set inline (no ``super().__init__`` / ``env.schedule``
        # call chain), and already-fired plain sleeps are recycled through
        # ``Environment.timeout`` without re-entering this constructor.
        self.env = env
        self.callbacks = []
        self._delay = delay
        self._ok = True
        self._value = value
        self.defused = False
        env._eid = eid = env._eid + 1
        env._push((env._now + delay, NORMAL, eid, self))

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay


class Initialize(Event):
    """Internal event used to start a newly created process immediately."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any) -> None:
        self.env = env
        self._ok = True
        self._value = None
        self.callbacks = [process._resume_cb]
        self.defused = False
        env._eid = eid = env._eid + 1
        env._push((env._now, URGENT, eid, self))


class ConditionValue:
    """Ordered mapping of events to values produced by a :class:`Condition`.

    Behaves like a read-only dictionary keyed by the original events, in
    trigger order.  Supports ``in``, ``len``, iteration over events and
    ``todict()``.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (event._value for event in self.events)

    def items(self):
        return ((event, event._value) for event in self.events)

    def todict(self) -> dict[Event, Any]:
        """Return a plain ``dict`` mapping events to their values."""
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event combining several events with an evaluation function.

    The condition triggers as soon as ``evaluate(events, count)`` returns
    ``True``, where *count* is the number of already-triggered sub-events, or
    immediately fails if any sub-event fails.  Use the :class:`AllOf` and
    :class:`AnyOf` convenience subclasses (or the ``&``/``|`` operators on
    events).
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._evaluate = evaluate
        self._events = events = list(events)
        self._count = 0

        for event in events:
            if event.env is not env:
                raise ValueError("all events of a condition must share an environment")

        # Batched evaluation of the initial state: already-processed
        # sub-events are counted in a single in-order pass (one evaluation
        # per counted event, exactly as the callback path would have done),
        # and a single cached bound method is registered on each pending
        # sub-event.  Once the condition has triggered, the remaining
        # sub-events need no callbacks at all — a late ``_check`` would be a
        # no-op anyway.
        check = self._check
        count = 0
        for event in events:
            if event.callbacks is None:
                count += 1
                self._count = count
                if not event._ok:
                    event.defused = True
                    self._ok = False
                    self._value = event._value
                    env._eid = eid = env._eid + 1
                    env._push((env._now, NORMAL, eid, self))
                    break
                if evaluate(events, count):
                    self._ok = True
                    condition_value = ConditionValue()
                    self._populate_value(condition_value)
                    self._value = condition_value
                    env._eid = eid = env._eid + 1
                    env._push((env._now, NORMAL, eid, self))
                    break
            else:
                event.callbacks.append(check)

        if not events and self._value is PENDING:
            # An empty condition is trivially satisfied.
            self.succeed(ConditionValue())

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # A failing sub-event fails the whole condition.
            event.defused = True
            self._ok = False
            self._value = event._value
            env = self.env
            env._eid = eid = env._eid + 1
            env._push((env._now, NORMAL, eid, self))
        elif self._evaluate(self._events, self._count):
            self._ok = True
            condition_value = ConditionValue()
            self._populate_value(condition_value)
            self._value = condition_value
            env = self.env
            env._eid = eid = env._eid + 1
            env._push((env._now, NORMAL, eid, self))

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """Evaluation function: all sub-events triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """Evaluation function: at least one sub-event triggered."""
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition satisfied when *all* given events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)

    def _check(self, event: Event) -> None:
        # Specialised dispatch: compare the trigger count against the event
        # count directly instead of going through the ``_evaluate`` callable.
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self._ok = False
            self._value = event._value
            env = self.env
            env._eid = eid = env._eid + 1
            env._push((env._now, NORMAL, eid, self))
        elif self._count == len(self._events):
            self._ok = True
            condition_value = ConditionValue()
            self._populate_value(condition_value)
            self._value = condition_value
            env = self.env
            env._eid = eid = env._eid + 1
            env._push((env._now, NORMAL, eid, self))


class AnyOf(Condition):
    """Condition satisfied when *any* of the given events has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)

    def _check(self, event: Event) -> None:
        # Specialised dispatch: the first triggered sub-event decides.
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self._ok = False
            self._value = event._value
        else:
            self._ok = True
            condition_value = ConditionValue()
            self._populate_value(condition_value)
            self._value = condition_value
        env = self.env
        env._eid = eid = env._eid + 1
        env._push((env._now, NORMAL, eid, self))
