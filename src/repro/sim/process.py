"""Process abstraction for the discrete-event simulation kernel.

A :class:`Process` wraps a Python generator.  The generator *yields* events;
every time the yielded event is processed by the environment, the generator
is resumed with the event's value (or the event's exception is thrown into
it).  When the generator returns, the process event itself succeeds with the
generator's return value, so processes can wait on each other simply by
yielding another process.

A process costs one URGENT :class:`~repro.sim.events.Initialize` event to
start and, as an event itself, one NORMAL exit event when its generator
ends.  The exit event is scheduled only when something waits on it: a
process that returns with no callbacks registered (no process yields it, no
condition holds it, ``run(until=...)`` was not given it) is marked processed
on the spot, since its exit event would have fired with nothing to call.  A
process that *fails* always schedules its exit event, so an unhandled failure
still raises from :meth:`~repro.sim.core.Environment.run`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import NORMAL, PENDING, Event, Initialize, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

#: Type alias for the generators accepted by :meth:`Environment.process`.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A simulation process driven by a generator of events.

    Parameters
    ----------
    env:
        The owning environment.
    generator:
        A generator yielding :class:`~repro.sim.events.Event` instances.

    Notes
    -----
    The process itself is an event that triggers when the generator
    terminates: it succeeds with the generator's return value, or fails with
    the exception that escaped the generator.  A process can be interrupted
    with :meth:`interrupt`, which throws :class:`~repro.sim.events.Interrupt`
    into the generator at its current yield point.
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        # Inlined ``Event.__init__``: one process is created per simulated
        # activity, which adds up to thousands of constructions per run.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._generator = generator
        #: Cached bound method: ``_resume`` is registered as a callback once
        #: per event the process waits on, so creating the bound method once
        #: here avoids an allocation per scheduling round-trip.
        self._resume_cb = self._resume
        #: The event this process is currently waiting for (initially the
        #: internal :class:`Initialize` event, ``None`` after termination).
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def name(self) -> str:
        """Name of the wrapped generator function (for diagnostics)."""
        return getattr(self._generator, "__name__", repr(self._generator))

    @property
    def is_alive(self) -> bool:
        """``True`` while the wrapped generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` with *cause* into the process.

        Interrupting a terminated process or a process that is interrupting
        itself is an error.  The interrupt is delivered asynchronously via an
        urgent event so that the caller's own execution is not pre-empted.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self.name} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        # Deliver before any other event scheduled at the current time.
        self.env.schedule(interrupt_event, priority=0)

        # Swap the process' resume callback onto the interrupt event.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        interrupt_event.callbacks = [self._resume_cb]

    def _resume(self, event: Event) -> None:
        """Resume the generator with the value (or exception) of *event*."""
        env = self.env
        env._active_process = self
        generator = self._generator
        send = generator.send

        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The event failed: mark it as handled and throw the
                    # exception into the generator.
                    event.defused = True
                    exc = event._value
                    next_event = generator.throw(exc)
            except StopIteration as stop:
                # Process finished successfully.
                event = None  # type: ignore[assignment]
                self._ok = True
                self._value = stop.value
                if self.callbacks:
                    env._eid = eid = env._eid + 1
                    env._push((env._now, NORMAL, eid, self))
                else:
                    # Nobody waits on this process: its exit event would
                    # fire with no callbacks, so it is processed now and
                    # nothing is scheduled.
                    self.callbacks = None
                break
            except BaseException as exc:
                # Process failed; the environment will re-raise unless a
                # waiter defuses the failure.
                event = None  # type: ignore[assignment]
                self._ok = False
                self._value = exc
                env._eid = eid = env._eid + 1
                env._push((env._now, NORMAL, eid, self))
                break

            # The generator yielded a new event to wait for.
            if not isinstance(next_event, Event):
                generator.throw(
                    TypeError(
                        f"process {self.name} yielded {next_event!r}, "
                        "which is not an Event"
                    )
                )
                continue

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event not yet processed: register and suspend.
                callbacks.append(self._resume_cb)
                self._target = next_event
                break

            # The event has already been processed: resume immediately with
            # its value in the next loop iteration.
            event = next_event

        self._target = None if event is None else self._target
        env._active_process = None
