"""Simulation environment: clock, event heap and execution loop.

The :class:`Environment` is the only stateful object a simulation needs to
share: it keeps the current simulated time and a binary heap of scheduled
``(time, priority, insertion_id, event)`` entries.  Everything else
(clusters, schedulers, applications) is expressed as callback chains on the
events of one environment.

Fast path
---------
The run loop is the hottest code of the whole project (a full-size figure run
processes hundreds of thousands of events), so :meth:`Environment.run` — the
one place events fire — keeps every per-event lookup in a local, and
:meth:`Environment.relay` builds its event without the constructor call
chain.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional, Union

from repro.sim.events import NORMAL, Event, Timeout


class StopSimulation(Exception):
    """Internal exception used to stop :meth:`Environment.run` at an event.

    The exception value carries the value of the event the run stopped at.
    """

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that aborts the run loop when *event* is processed."""
        if event.ok:
            raise cls(event.value)
        # Propagate failures of the "until" event.
        raise event.value


class Environment:
    """Execution environment of a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.  Time is measured in seconds
        throughout this project.

    Examples
    --------
    >>> env = Environment()
    >>> fired = []
    >>> env.timeout(10).callbacks.append(lambda event: fired.append(env.now))
    >>> env.run()
    >>> fired
    [10.0]
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        #: Pending ``(time, priority, insertion_id, event)`` entries, a heap.
        self._heap: list = []
        #: ``heappush`` bound to the heap once, for the scheduling hot path
        #: (:meth:`set_tracer` swaps in a recording wrapper).
        self._push = partial(heappush, self._heap)
        self._eid: int = 0
        self._events_processed: int = 0
        #: Optional :class:`repro.obs.trace.Tracer`.  ``None`` (the default)
        #: costs exactly one attribute check per :meth:`run` call.
        self._tracer = None

    # -- basic accessors -------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events this environment has processed so far.

        Maintained by the run loop.  It counts work, not time, so the exact
        cases under ``tests/golden`` require each run's count to equal its
        committed value.
        """
        return self._events_processed

    # -- event factories -------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that triggers after *delay* time units."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a new, untriggered :class:`~repro.sim.events.Event`."""
        return Event(self)

    def relay(self, callback: Callable[[Event], Any], priority: int = NORMAL) -> Event:
        """Call *callback* one event hop from now, at the current time.

        Schedules a plain, already-succeeded :class:`~repro.sim.events.Event`
        whose only callback is *callback*, at ``now`` with *priority*.  This
        is one hop of a callback chain: an ``URGENT`` relay runs right after
        the current event's callbacks, before every ``NORMAL`` event at
        ``now``; a ``NORMAL`` relay runs after every ``NORMAL`` event already
        queued for ``now``.  Because the relay is a plain ``Event``, traces
        and event counts see it as one.
        """
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = [callback]
        event._value = None
        event._ok = True
        event.defused = False
        self._eid = eid = self._eid + 1
        self._push((self._now, priority, eid, event))
        return event

    # -- scheduling and execution -----------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule *event* for processing after *delay* time units.

        Events scheduled for the same time are processed in priority order
        (lower first), then in insertion order.
        """
        self._eid = eid = self._eid + 1
        self._push((self._now + delay, priority, eid, event))

    def schedule_at(self, event: Event, at: float, priority: int = NORMAL) -> None:
        """Schedule *event* for processing at the absolute time *at*.

        The restore path's scheduling primitive: a checkpoint records
        absolute event times, and ``now + (at - now)`` does not round-trip
        in IEEE floating point, so rehydrated events must be pushed at *at*
        itself to land back on the exact original drain order.
        """
        if not at >= self._now:
            raise ValueError(
                f"cannot schedule at {at}, not at or after the current time {self._now}"
            )
        self._eid = eid = self._eid + 1
        self._push((at, priority, eid, event))

    def timeout_at(self, at: float, value: Any = None) -> Timeout:
        """An event that triggers at the absolute time *at* (``>= now``).

        The absolute-time counterpart of :meth:`timeout`.  Used where a
        time was recorded absolutely (workload submit times, the KIS poll
        grid, checkpointed completions): such work must happen at that exact
        float, not at ``now + delta``.
        """
        if not at >= self._now:
            raise ValueError(
                f"timeout_at({at}) does not lie at or after the current time {self._now}"
            )
        # Build an unscheduled Timeout by hand: the constructor always pushes
        # at ``now + delay``, which is exactly the rounding this method
        # exists to avoid.
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._ok = True
        event._value = value
        event.defused = False
        self._eid = eid = self._eid + 1
        self._push((at, NORMAL, eid, event))
        return event

    def peek(self) -> float:
        """Return the time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else inf

    def pending_entries(self):
        """Sorted snapshot of every pending ``(time, priority, id, event)``.

        Checkpoint introspection: the drain order the simulation would
        continue with.  A snapshot — mutating the returned list does not
        touch the heap.
        """
        return sorted(self._heap)

    def kernel_state(self) -> dict:
        """JSON-able fingerprint of the kernel: clock, counters, heap size.

        Captured into checkpoint envelopes so a restore can verify it
        re-created (or re-reached) exactly the state that was saved.
        """
        return {
            "now": self._now,
            "event_id": self._eid,
            "events_processed": self._events_processed,
            "pending": len(self._heap),
        }

    def set_tracer(self, tracer) -> None:
        """Attach (or with ``None`` detach) a structured-event tracer.

        With a tracer attached, every schedule emits a ``sched`` record
        (via a wrapped ``_push``, so the disabled path keeps the plain
        ``heappush`` binding) and :meth:`run` pops through a wrapper that
        emits an ``ev`` record per fired event and periodic ``queue``
        snapshots.  Trace records carry simulated time only — never
        wall-clock — so same-seed runs produce byte-identical traces.
        """
        self._tracer = tracer
        push = partial(heappush, self._heap)
        if tracer is None:
            self._push = push
            return
        write = tracer.write

        def traced_push(item) -> None:
            write(
                {
                    "k": "sched",
                    "t": item[0],
                    "pr": item[1],
                    "id": item[2],
                    "e": type(item[3]).__name__,
                }
            )
            push(item)

        self._push = traced_push

    #: Traced runs: a ``queue`` snapshot record every this many events.
    TRACE_QUEUE_SNAPSHOT_EVERY = 4096

    def _traced_pop(self):
        """A ``heappop`` that writes the trace records of each fired event.

        Built once per :meth:`run` call: one ``ev`` record per event, and a
        ``queue`` snapshot every :data:`TRACE_QUEUE_SNAPSHOT_EVERY` events
        of the call.
        """
        write = self._tracer.write
        every = self.TRACE_QUEUE_SNAPSHOT_EVERY
        processed_before = self._events_processed
        fired = 0

        def pop(heap):
            nonlocal fired
            item = heappop(heap)
            now = item[0]
            write({"k": "ev", "t": now, "pr": item[1], "e": type(item[3]).__name__})
            fired += 1
            if not fired % every:
                write(
                    {
                        "k": "queue",
                        "t": now,
                        "pending": len(heap),
                        "processed": processed_before + fired,
                    }
                )
            return item

        return pop

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until no events are left;
            * a number — fire every event scheduled *earlier* than that
              time, then set the clock to it.  Events at exactly that time
              stay pending, and no event is scheduled to stop the run, so a
              chunked advance allocates no event ids.  A value equal to the
              current time is a no-op;
            * an :class:`~repro.sim.events.Event` — run until that event is
              processed and return its value.

        Returns
        -------
        The value of the *until* event if one was given, otherwise ``None``.
        """
        horizon = inf
        stop: Optional[Event] = None
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed: nothing to run.
                return until.value
            until.callbacks.append(StopSimulation.callback)
            stop = until
        elif until is not None:
            horizon = float(until)
            if not horizon >= self._now:
                raise ValueError(
                    f"until ({horizon}) must be at or after the current time ({self._now})"
                )

        heap = self._heap
        pop = heappop if self._tracer is None else self._traced_pop()
        processed = 0
        try:
            while heap and heap[0][0] < horizon:
                item = pop(heap)
                self._now = item[0]
                event = item[3]
                callbacks = event.callbacks
                if callbacks is None:  # pragma: no cover - defensive
                    continue
                event.callbacks = None
                processed += 1
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event.defused:
                    # An event failed and nobody handled it: surface the
                    # error so the simulation does not silently swallow
                    # programming mistakes.
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(
                        f"event {event!r} failed with non-exception {exc!r}"
                    )
        except StopSimulation as stopped:
            return stopped.args[0] if stopped.args else None
        finally:
            self._events_processed += processed
        if stop is not None:
            raise RuntimeError(
                f"no scheduled events left but the until event {stop!r} "
                f"was never triggered"
            )
        if until is not None:
            self._now = horizon
        return None
