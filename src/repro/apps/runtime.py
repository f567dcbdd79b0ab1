"""Simulated execution of a (possibly malleable) application.

:class:`RunningApplication` is the simulation-side stand-in for an actual
MPI application adapted with DYNACO/AFPAC.  Its contract towards the rest of
the system is intentionally identical to the one the paper describes between
the MRunner and the real application:

* the application runs on its current allocation; its *remaining work*
  depletes at the rate given by the profile's speedup model;
* the runner asks it to adopt a new allocation with :meth:`set_allocation`;
  the application keeps computing until it reaches its next *adaptation
  point* (AFPAC semantics), then pauses for the reconfiguration cost, adopts
  the new size and acknowledges;
* when the work is done the :attr:`completed` event triggers.

The execution is a callback chain, not a process.  An URGENT relay begins
it; each computation segment is a timeout whose callback is the
application's *completion link* (:meth:`RunningApplication._resume`).  A
reallocation or an abort interrupts a segment: it takes the completion link
off the pending timeout (which stays queued and fires with no callback) and
resumes the chain in an URGENT relay instead.  A request that arrives while
such an interrupt is in flight only joins the queue.

Everything the evaluation metrics need (allocation over time, number of
reconfigurations, execution time) is captured in an
:class:`ExecutionRecord`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.apps.profiles import ApplicationProfile
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event
from repro.sim.monitor import TimeSeries

#: Remaining work below this fraction counts as finished (guards against
#: floating-point dust after repeated partial progress updates).
_WORK_EPSILON = 1e-9


@dataclass
class Reconfiguration:
    """One grow/shrink operation performed by the application."""

    time: float
    old_allocation: int
    new_allocation: int
    cost: float

    @property
    def is_grow(self) -> bool:
        """Whether the operation increased the allocation."""
        return self.new_allocation > self.old_allocation


@dataclass
class ExecutionRecord:
    """Everything observed about one application execution.

    The record is filled in by :class:`RunningApplication` while the
    simulation runs and consumed by :mod:`repro.metrics` afterwards.
    """

    job_id: str
    profile_name: str
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    allocation_series: TimeSeries = field(default_factory=TimeSeries)
    reconfigurations: List[Reconfiguration] = field(default_factory=list)

    @property
    def started(self) -> bool:
        """Whether the application has started executing."""
        return self.start_time is not None

    @property
    def finished(self) -> bool:
        """Whether the application has finished executing."""
        return self.finish_time is not None

    @property
    def execution_time(self) -> float:
        """Wall-clock time between start and finish of the execution."""
        if self.start_time is None or self.finish_time is None:
            raise ValueError(f"job {self.job_id!r} has not finished")
        return self.finish_time - self.start_time

    @property
    def response_time(self) -> float:
        """Wall-clock time between submission and finish (wait + execution)."""
        if self.submit_time is None or self.finish_time is None:
            raise ValueError(f"job {self.job_id!r} has not finished or was never submitted")
        return self.finish_time - self.submit_time

    @property
    def wait_time(self) -> float:
        """Time the job spent in the placement queue before starting."""
        if self.submit_time is None or self.start_time is None:
            raise ValueError(f"job {self.job_id!r} has not started or was never submitted")
        return self.start_time - self.submit_time

    @property
    def average_allocation(self) -> float:
        """Time-weighted average number of processors over the execution."""
        if not self.allocation_series.times:
            return 0.0
        end = self.finish_time if self.finish_time is not None else self.allocation_series.times[-1]
        return self.allocation_series.time_average(self.start_time, end)

    @property
    def maximum_allocation(self) -> int:
        """Largest number of processors held at any point of the execution."""
        if not self.allocation_series.values:
            return 0
        return int(max(self.allocation_series.values))

    @property
    def grow_count(self) -> int:
        """Number of reconfigurations that increased the allocation."""
        return sum(1 for r in self.reconfigurations if r.is_grow)

    @property
    def shrink_count(self) -> int:
        """Number of reconfigurations that decreased the allocation."""
        return sum(1 for r in self.reconfigurations if not r.is_grow)


class RunningApplication:
    """A simulated application execution driven by its allocation.

    Parameters
    ----------
    env:
        Simulation environment.
    profile:
        Static description of the application (speedup, constraints, costs).
    initial_allocation:
        Number of processors the application starts on.
    job_id:
        Identifier used in the execution record.
    adaptation_point_interval:
        Average spacing (in seconds of application execution) between AFPAC
        adaptation points.  Reconfiguration requests wait until the next
        adaptation point before taking effect; the wait is drawn uniformly
        from ``[0, adaptation_point_interval]`` when *rng* is given and is
        ``adaptation_point_interval / 2`` otherwise.
    rng:
        Optional random generator for adaptation-point waits.
    total_work:
        Amount of work relative to a full run of the profile (1.0 = the whole
        application as measured in Figure 6).
    """

    def __init__(
        self,
        env: Environment,
        profile: ApplicationProfile,
        initial_allocation: int,
        *,
        job_id: str = "",
        adaptation_point_interval: float = 2.0,
        rng: Optional[np.random.Generator] = None,
        total_work: float = 1.0,
    ) -> None:
        if initial_allocation < 1:
            raise ValueError("initial_allocation must be >= 1")
        if adaptation_point_interval < 0:
            raise ValueError("adaptation_point_interval must be non-negative")
        if total_work <= 0:
            raise ValueError("total_work must be positive")

        self.env = env
        self.profile = profile
        self.job_id = job_id or profile.name
        self.adaptation_point_interval = float(adaptation_point_interval)
        self._rng = rng
        self._allocation = int(initial_allocation)
        self._remaining = float(total_work)
        self._total_work = float(total_work)
        self._pending: Deque[Tuple[int, Event]] = deque()
        self._started = False
        #: The event whose callbacks hold the completion link while the
        #: application computes (or waits for processors) and a request may
        #: interrupt it; ``None`` otherwise, and once an interrupt is in flight.
        self._interruptible: Optional[Event] = None
        self._aborted = False
        #: Start time and rate of the progressing segment currently underway
        #: (``None`` while paused or reconfiguring); lets ``remaining_fraction``
        #: report live progress between simulation events.
        self._progressing_since: Optional[float] = None
        self._progressing_rate: float = 0.0
        #: Event that succeeds (with the execution record) once the work is done.
        self.completed: Event = env.event()
        self.record = ExecutionRecord(job_id=self.job_id, profile_name=profile.name)

    # -- public state ------------------------------------------------------

    @property
    def allocation(self) -> int:
        """Number of processors the application is currently using."""
        return self._allocation

    @property
    def remaining_fraction(self) -> float:
        """Fraction of the total work still to be done (1.0 at start, 0.0 at end).

        The value is live: while the application is computing, the progress of
        the current segment is included, so callers (e.g. application-side
        adaptation logic) can poll it at any simulation time.
        """
        remaining = self._remaining
        if self._progressing_since is not None:
            elapsed = self.env.now - self._progressing_since
            remaining = max(0.0, remaining - elapsed * self._progressing_rate)
        return max(0.0, remaining / self._total_work)

    @property
    def is_running(self) -> bool:
        """Whether the execution has started and not yet finished."""
        return self.record.started and not self.record.finished

    @property
    def is_finished(self) -> bool:
        """Whether the execution has finished."""
        return self.record.finished

    @property
    def aborted(self) -> bool:
        """Whether the execution was terminated early (e.g. a node failure)."""
        return self._aborted

    # -- control interface used by the runner ------------------------------

    def start(self) -> "RunningApplication":
        """Begin executing (in an URGENT relay).  May only be called once."""
        if self._started:
            raise RuntimeError(f"application {self.job_id!r} has already been started")
        self._started = True
        self.env.relay(self._begin, URGENT)
        return self

    def set_allocation(self, new_size: int) -> Event:
        """Ask the application to adopt *new_size* processors.

        Returns an event that succeeds with the adopted allocation once the
        reconfiguration (adaptation-point wait plus reconfiguration cost) has
        completed.  If the application finishes before the request is served,
        the event succeeds immediately with the allocation held at completion;
        callers must check :attr:`is_finished`.  Requests are served one at a
        time, in arrival order.

        The caller is responsible for having filtered *new_size* through the
        application's size constraint (the DYNACO decide component does this).
        """
        if not self._started:
            raise RuntimeError(f"application {self.job_id!r} has not been started")
        if new_size < 0:
            raise ValueError("new_size must be non-negative")
        ack = self.env.event()
        if self.is_finished or new_size == self._allocation:
            ack.succeed(self._allocation)
            return ack
        self._pending.append((int(new_size), ack))
        if self._interruptible is not None:
            self._interrupt()
        return ack

    def abort(self) -> None:
        """Terminate the execution immediately (the job was killed).

        Used by the fault-injection layer when the processors under the
        application fail: whatever work was done is lost, the execution
        record is closed at the current time (:attr:`aborted` distinguishes
        it from a successful completion) and :attr:`completed` triggers so
        waiters unwind.  Idempotent; a no-op after normal completion.
        """
        if not self._started or self.is_finished:
            return
        self._aborted = True
        # Freeze progress accounting: the time computed so far still shows in
        # the record (it is the basis of the wasted-work metric), but no more
        # accrues.
        self._end_progress()
        self.record.finish_time = self.env.now
        while self._pending:
            _, ack = self._pending.popleft()
            if not ack.triggered:
                ack.succeed(self._allocation)
        if self._interruptible is not None:
            self._interrupt()
        if not self.completed.triggered:
            self.completed.succeed(self.record)

    # -- internal machinery -------------------------------------------------

    def _execution_time(self, processors: int) -> float:
        return self._total_work * self.profile.execution_time(processors)

    def _rate(self, processors: int) -> float:
        """Work (fraction of total) completed per second on *processors*."""
        return self._total_work / self._execution_time(processors)

    def _adaptation_wait(self) -> float:
        if self.adaptation_point_interval == 0:
            return 0.0
        if self._rng is not None:
            return float(self._rng.uniform(0.0, self.adaptation_point_interval))
        return self.adaptation_point_interval / 2.0

    def _record_allocation(self) -> None:
        self.record.allocation_series.record(self.env.now, self._allocation)

    def _begin_progress(self) -> None:
        """Mark the start of a segment during which work is being done."""
        self._progressing_since = self.env.now
        self._progressing_rate = self._rate(self._allocation) if self._allocation >= 1 else 0.0

    def _end_progress(self) -> None:
        """Account for the work done since :meth:`_begin_progress`."""
        if self._progressing_since is None:
            return
        elapsed = self.env.now - self._progressing_since
        if elapsed > 0 and self._progressing_rate > 0:
            self._remaining = max(0.0, self._remaining - elapsed * self._progressing_rate)
        self._progressing_since = None
        self._progressing_rate = 0.0

    def _begin(self, _event: Event) -> None:
        """The chain's first link: open the record, then compute."""
        self.record.start_time = self.env.now
        self._record_allocation()
        self._advance()

    def _advance(self) -> None:
        """Compute and serve requests until the chain waits on an event."""
        env = self.env
        while not self._aborted and self._remaining > _WORK_EPSILON:
            if self._pending:
                if self._serve():
                    return
                continue
            if self._allocation < 1:
                # No processors at all: stay suspended until a reallocation
                # request arrives.  (In practice jobs never shrink below their
                # minimum size, but the runtime stays well-defined if they do.)
                self._wait_interruptibly(Event(env))
                return
            # Plain computation until completion or until a reconfiguration
            # request interrupts it.
            time_to_finish = self._remaining / self._rate(self._allocation)
            self._begin_progress()
            self._wait_interruptibly(env.timeout(time_to_finish))
            return
        if not self._aborted:  # abort() already closed the record
            self._finish()

    def _wait_interruptibly(self, event: Event) -> None:
        self._interruptible = event
        event.callbacks.append(self._resume)

    def _resume(self, _event: Event) -> None:
        """The completion link: a segment ended, or a request interrupted it."""
        self._interruptible = None
        self._end_progress()
        self._advance()

    def _interrupt(self) -> None:
        """Take the completion link off the segment; resume in an URGENT relay."""
        self._interruptible.callbacks.remove(self._resume)
        self._interruptible = None
        self.env.relay(self._resume, URGENT)

    def _serve(self) -> bool:
        """Serve the oldest pending request; ``True`` while it waits on a timeout."""
        new_size, ack = self._pending.popleft()

        # The application keeps computing until its next adaptation point.
        wait = self._adaptation_wait()
        if wait > 0 and self._remaining > _WORK_EPSILON:
            if self._allocation >= 1:
                time_to_finish = self._remaining / self._rate(self._allocation)
                segment = min(wait, time_to_finish)
            else:
                segment = wait
            self._begin_progress()
            self.env.timeout(segment).callbacks.append(
                partial(self._at_adaptation_point, new_size, ack)
            )
            return True
        return self._redistribute(new_size, ack)

    def _at_adaptation_point(self, new_size: int, ack: Event, _event: Event) -> None:
        self._end_progress()
        if self._aborted or self._remaining <= _WORK_EPSILON:
            # Aborted, or finished before reaching the adaptation point: the
            # reconfiguration never happens.
            if not ack.triggered:
                ack.succeed(self._allocation)
        elif self._redistribute(new_size, ack):
            return
        self._advance()

    def _redistribute(self, new_size: int, ack: Event) -> bool:
        """Adopt *new_size* after the reconfiguration cost; ``True`` while paused."""
        cost = self.profile.reconfiguration.cost(self._allocation, new_size)
        if cost > 0:
            # The application is suspended while it redistributes its data.
            self.env.timeout(cost).callbacks.append(
                partial(self._redistributed, new_size, cost, ack)
            )
            return True
        self._adopt(new_size, cost, ack)
        return False

    def _redistributed(self, new_size: int, cost: float, ack: Event, _event: Event) -> None:
        if self._aborted:
            if not ack.triggered:
                ack.succeed(self._allocation)
            return
        self._adopt(new_size, cost, ack)
        self._advance()

    def _adopt(self, new_size: int, cost: float, ack: Event) -> None:
        old = self._allocation
        self._allocation = new_size
        self._record_allocation()
        self.record.reconfigurations.append(
            Reconfiguration(
                time=self.env.now, old_allocation=old, new_allocation=new_size, cost=cost
            )
        )
        ack.succeed(new_size)

    def _finish(self) -> None:
        self._remaining = 0.0
        self.record.finish_time = self.env.now
        # Flush any requests that arrived too late to matter.
        while self._pending:
            _, ack = self._pending.popleft()
            ack.succeed(self._allocation)
        self.completed.succeed(self.record)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RunningApplication {self.job_id!r} profile={self.profile.name!r} "
            f"allocation={self._allocation} remaining={self.remaining_fraction:.3f}>"
        )
