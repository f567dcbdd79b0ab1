"""Process-based reference copies of the classes that became callback chains.

The kernel no longer runs generator processes.  :class:`Process`,
:class:`Initialize` and :class:`Interrupt` below are copies of the kernel's
former process machinery for the references to run on, without the
active-process bookkeeping (which moved no event): a process starts with one
URGENT ``Initialize``, resumes at once on an already-processed event, and is
interrupted through an URGENT failed event that takes its resumption over.

These are the process-based :class:`GramEndpoint`,
:class:`LocalResourceManager` and :class:`BackgroundLoadGenerator` the
cluster layer shipped before it became process-free: each GRAM submission a
process behind a ``Resource`` gatekeeper, the local dispatcher a process
re-arming a ``wakeup | released`` condition, each local job a process, and
each cluster's background load a generator process.  The class bodies are
kept unchanged, except that the kernel no longer has a counted resource or
composite events: :class:`Resource` and :func:`any_of` below are copies of
the parts of them these classes use, and ``wakeup | released`` is spelled
``any_of(env, [wakeup, released])``.  Like the shipped classes, the local
manager and the background generator count their jobs instead of keeping
them.

:class:`KoalaInformationService`, :class:`WorkloadSubmitter` and
:class:`FaultInjector` subclass the shipped classes and start the poll loop,
the submission loop and the injection loop as the generator processes they
were before they became callback chains.

:class:`RigidRunner`, :class:`MalleableRunner`, :class:`Dynaco` (with the
generator :class:`AfpacExecutor` it drives), :class:`MalleabilityManager`
and :class:`RunningApplication` subclass the shipped classes in the same
way, with the process bodies they had before: a runner's start, grow, shrink
and failure survival, DYNACO's execution of a plan, a shrink campaign's
waits, and the application's interruptible computation.  The one change is
the guard against a second interrupt: a request that arrives while an
interrupt is in flight only joins the queue, as it does in the shipped
application.  The runners build their application and DYNACO through the
names of the shipped runner modules, as the shipped runners do, so each of
those names must be patched for the references to run together.
Subclasses keep ``isinstance(runner, MalleableRunner)`` true wherever the
shipped code checks it.

``test_reference_equivalence`` runs small systems dense in same-instant ties
with these classes patched in and as shipped, and requires identical
outcomes, so any later change to the event structure of any of them is
checked against this drain order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.apps import runtime as runtime_module
from repro.apps.runtime import Reconfiguration, _WORK_EPSILON
from repro.cluster.allocation import Allocation
from repro.cluster.background import BackgroundLoadSpec
from repro.cluster.cluster import Cluster
from repro.cluster.gram import GramJob, GramSubmissionError
from repro.cluster.local_rm import LocalJob
from repro.dynaco import execute as execute_module
from repro.dynaco import framework as framework_module
from repro.dynaco.decide import MalleabilityDecision
from repro.dynaco.events import AdaptationResult, EnvironmentEvent
from repro.dynaco.plan import MalleabilityPlanner, Plan
from repro.faults import injector as injector_module
from repro.koala import kis as kis_module
from repro.koala import mrunner as mrunner_module
from repro.koala import runners as runners_module
from repro.koala.claiming import ClaimLedger, PendingClaim
from repro.koala.job import JobKind, JobState
from repro.malleability import manager as manager_module
from repro.sim.core import Environment
from repro.sim.events import NORMAL, PENDING, URGENT, Event
from repro.workloads import submission as submission_module


# ---------------------------------------------------------------------------
# The kernel's former process machinery
# ---------------------------------------------------------------------------


class Interrupt(Exception):
    """Exception thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`, or ``None``."""
        return self.args[0] if self.args else None


class Initialize(Event):
    """Internal event used to start a newly created process immediately."""

    __slots__ = ()

    def __init__(self, env: Environment, process: "Process") -> None:
        self.env = env
        self._ok = True
        self._value = None
        self.callbacks = [process._resume_cb]
        self.defused = False
        env._eid = eid = env._eid + 1
        env._push((env._now, URGENT, eid, self))


#: Type alias for the generators a :class:`Process` runs.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A simulation process driven by a generator of events.

    The process itself is an event that triggers when the generator
    terminates; its exit event is scheduled only when something waits on it
    (or when the generator failed, so the failure surfaces from the run).
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env: Environment, generator: ProcessGenerator) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._generator = generator
        self._resume_cb = self._resume
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

        The interrupt is delivered by an URGENT failed event that takes the
        process's resumption over from the event it was waiting on.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self.name} has terminated and cannot be interrupted")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        self.env.schedule(interrupt_event, priority=URGENT)
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        interrupt_event.callbacks = [self._resume_cb]

    def _resume(self, event: Event) -> None:
        """Resume the generator with the value (or exception) of *event*."""
        env = self.env
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                event = None
                self._ok = True
                self._value = stop.value
                if self.callbacks:
                    env._eid = eid = env._eid + 1
                    env._push((env._now, NORMAL, eid, self))
                else:
                    self.callbacks = None
                break
            except BaseException as exc:
                event = None
                self._ok = False
                self._value = exc
                env._eid = eid = env._eid + 1
                env._push((env._now, NORMAL, eid, self))
                break
            if not isinstance(next_event, Event):
                generator.throw(
                    TypeError(
                        f"process {self.name} yielded {next_event!r}, which is not an Event"
                    )
                )
                continue
            callbacks = next_event.callbacks
            if callbacks is not None:
                callbacks.append(self._resume_cb)
                self._target = next_event
                break
            event = next_event
        self._target = None if event is None else self._target


class _Request(Event):
    """A request for one slot of a :class:`Resource`; succeeds on grant."""

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self.triggered:
            self.resource.release(self)
        elif self in self.resource.queue:
            self.resource.queue.remove(self)


class Resource:
    """The kernel's former counted resource, as the GRAM gatekeeper used it.

    Requests are granted in request order while a slot is free; a grant is
    the request succeeding (one NORMAL event).  A release frees its slot at
    once and succeeds; the waiting requests are granted when the release
    event fires, one NORMAL hop later.
    """

    def __init__(self, env: Environment, capacity: int) -> None:
        self.env = env
        self.capacity = capacity
        self.users: List[_Request] = []
        self.queue: List[_Request] = []

    def request(self) -> _Request:
        request = _Request(self)
        self.queue.append(request)
        self._grant()
        return request

    def release(self, request: _Request) -> Event:
        if request in self.users:
            self.users.remove(request)
        release = Event(self.env)
        release.callbacks.append(self._grant)
        return release.succeed()

    def _grant(self, _event: Optional[Event] = None) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()


def any_of(env: Environment, events: List[Event]) -> Event:
    """The kernel's former ``a | b`` condition, as the dispatcher used it.

    Succeeds (one NORMAL event) when the first of *events* is processed, or
    at once if one already was; fails the same way if that event failed.
    """
    condition = Event(env)

    def check(event: Event) -> None:
        if condition._value is not PENDING:
            return
        if event._ok:
            condition.succeed()
        else:
            event.defused = True
            condition.fail(event._value)

    for event in events:
        if event.callbacks is None:
            check(event)
            break
        event.callbacks.append(check)
    return condition


class GramEndpoint:
    """The GRAM submission interface of one cluster.

    Parameters
    ----------
    env, cluster:
        Simulation environment and the cluster this endpoint submits to.
    submission_latency:
        Mean time between submitting a GRAM job and its stub becoming active
        (seconds).  Includes authentication, queue handling and process
        start-up.
    recruit_latency:
        Mean time to convert an active stub into an application process.
    latency_jitter:
        Relative jitter applied to both latencies when *rng* is given (a
        value of 0.2 means +/-20% uniform).
    rng:
        Optional random generator for latency jitter.
    max_concurrent_submissions:
        How many submissions the GRAM gatekeeper handles simultaneously.
        ``None`` means unlimited.  The real Globus gatekeeper (security
        handshake, queue interaction) effectively serialises submissions,
        which is the main reason the paper calls the size-1-GRAM-jobs
        strategy poorly reactive: growing a job by many processors takes many
        submission latencies, not one.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        *,
        submission_latency: float = 5.0,
        recruit_latency: float = 0.5,
        latency_jitter: float = 0.2,
        rng: Optional[np.random.Generator] = None,
        max_concurrent_submissions: Optional[int] = None,
    ) -> None:
        if submission_latency < 0 or recruit_latency < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= latency_jitter < 1.0:
            raise ValueError("latency_jitter must lie in [0, 1)")
        if max_concurrent_submissions is not None and max_concurrent_submissions < 1:
            raise ValueError("max_concurrent_submissions must be >= 1 (or None)")
        self.env = env
        self.cluster = cluster
        self.submission_latency = float(submission_latency)
        self.recruit_latency = float(recruit_latency)
        self.latency_jitter = float(latency_jitter)
        self._rng = rng
        self.max_concurrent_submissions = max_concurrent_submissions
        if max_concurrent_submissions is not None:
            self._gatekeeper: Optional[Resource] = Resource(env, max_concurrent_submissions)
        else:
            self._gatekeeper = None
        #: GRAM jobs currently live at this endpoint.  Refused and released
        #: jobs are pruned immediately — at streaming workload sizes
        #: (hundreds of thousands of jobs) a grows-forever history would
        #: dominate the resident set.
        self.jobs: List[GramJob] = []
        #: Lifetime submission counter (the history the pruned list no
        #: longer provides).
        self.submitted_count: int = 0

    # -- latency model -----------------------------------------------------

    def _jittered(self, latency: float) -> float:
        if self._rng is None or self.latency_jitter == 0.0 or latency == 0.0:
            return latency
        factor = 1.0 + self._rng.uniform(-self.latency_jitter, self.latency_jitter)
        return max(0.0, latency * factor)

    # -- submission --------------------------------------------------------

    def submit(self, owner: str, processors: int = 1) -> Event:
        """Submit a GRAM job of *processors* nodes on behalf of *owner*.

        Returns an event that succeeds with the :class:`GramJob` once the
        job's stub is active (processors held), or fails with
        :class:`GramSubmissionError` if the processors are no longer
        available when the submission reaches the local resource manager.
        """
        if processors < 1:
            raise ValueError("a GRAM job needs at least one processor")
        job = GramJob(owner=owner, processors=int(processors))
        job.submitted_at = self.env.now
        self.jobs.append(job)
        self.submitted_count += 1
        done = Event(self.env)
        Process(self.env, self._submission(job, done))
        return done

    def _submission(self, job: GramJob, done: Event):
        if self._gatekeeper is not None:
            # Wait for a gatekeeper slot: submissions queue behind each other.
            with self._gatekeeper.request() as slot:
                yield slot
                yield self.env.timeout(self._jittered(self.submission_latency))
        else:
            yield self.env.timeout(self._jittered(self.submission_latency))
        allocation = self.cluster.try_allocate(job.processors, owner=job.owner, kind="grid")
        if allocation is None:
            error = GramSubmissionError(
                self.cluster.name, job.processors, self.cluster.idle_processors
            )
            # A refused submission is an expected outcome (the caller decides
            # what to do about it), not a simulation error: pre-defuse so the
            # environment does not abort if the caller has not started
            # waiting on this particular submission yet.
            done.defused = True
            done.fail(error)
            if job in self.jobs:
                self.jobs.remove(job)
            return
        job.allocation = allocation
        job.active_at = self.env.now
        done.succeed(job)

    def recruit(self, job: GramJob) -> Event:
        """Turn the active stub of *job* into an application process.

        Returns an event that succeeds after the (short) recruitment latency.
        Recruiting is how the MRunner hands freshly obtained processors to the
        running application without paying another full GRAM submission.
        """
        if not job.active:
            raise GramSubmissionError(self.cluster.name, job.processors, 0)
        return self.env.timeout(self._jittered(self.recruit_latency), value=job)

    def release(self, job: GramJob) -> None:
        """Release the processors held by *job* (after the application shrank)."""
        if job.allocation is not None and job.allocation.active:
            job.allocation.release()
        job.released_at = self.env.now
        if job in self.jobs:
            self.jobs.remove(job)

    # -- inspection ----------------------------------------------------------

    @property
    def active_jobs(self) -> List[GramJob]:
        """GRAM jobs currently holding processors."""
        return [job for job in self.jobs if job.active]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GramEndpoint on {self.cluster.name!r} ({len(self.active_jobs)} active jobs)>"


class LocalResourceManager:
    """Space-shared FCFS manager for local (background) jobs on one cluster.

    Parameters
    ----------
    env, cluster:
        The simulation environment and the managed cluster.
    backfilling:
        When ``True``, jobs behind a blocked queue head may start if they fit
        in the currently idle processors (aggressive backfilling without
        reservations).  The DAS-3 configuration modelled by default is plain
        FCFS.
    """

    def __init__(self, env: Environment, cluster: Cluster, *, backfilling: bool = False) -> None:
        self.env = env
        self.cluster = cluster
        self.backfilling = backfilling
        self._queue: Deque[LocalJob] = deque()
        self._completion_events: Dict[int, Event] = {}
        self.finished_count = 0
        #: Running jobs keyed by allocation id (for fault injection).
        self._running: Dict[int, "tuple[LocalJob, Allocation, Process]"] = {}
        self._wakeup: Optional[Event] = None
        self._dispatcher = Process(env, self._dispatch_loop())

    # -- public interface ------------------------------------------------------

    def submit(self, job: LocalJob) -> Event:
        """Queue *job*; returns an event that succeeds (with the job) at completion."""
        job.submit_time = self.env.now
        done = Event(self.env)
        self._completion_events[job.job_id] = done
        self._queue.append(job)
        self._kick()
        return done

    @property
    def queue_length(self) -> int:
        """Number of local jobs waiting to start."""
        return len(self._queue)

    def fail_allocation(self, allocation: Allocation) -> bool:
        """Kill the running local job holding *allocation* (a node failed).

        Local jobs are rigid: losing any node terminates the whole job early.
        Returns ``True`` if a job was killed, ``False`` when the allocation is
        not one of this manager's running jobs.  The processors come back to
        the pool when the interrupted job process releases them — the fault
        injector marks the dead ones failed *before* calling this, so the
        release cannot be double-promised.
        """
        # Popped immediately: a second failure striking the same job in the
        # same instant (e.g. two trace lines at one timestamp) must be a
        # no-op, not a second interrupt thrown into a finished generator.
        entry = self._running.pop(allocation.allocation_id, None)
        if entry is None:
            return False
        _, _, process = entry
        if process.is_alive:
            process.interrupt("node failure")
        return True

    # -- dispatcher -------------------------------------------------------------

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _dispatch_loop(self):
        while True:
            self._start_eligible_jobs()
            # Sleep until either a new submission arrives or processors are
            # released on the cluster.
            self._wakeup = Event(self.env)
            released = self.cluster.when_released()
            yield any_of(self.env, [self._wakeup, released])
            self._wakeup = None

    def _start_eligible_jobs(self) -> None:
        started = True
        while started:
            started = False
            if not self._queue:
                return
            head = self._queue[0]
            if head.processors <= self.cluster.idle_processors:
                self._queue.popleft()
                self._start(head)
                started = True
            elif self.backfilling:
                # Start the first later job that fits (no reservation for the
                # head, i.e. aggressive backfilling).
                for job in list(self._queue)[1:]:
                    if job.processors <= self.cluster.idle_processors:
                        self._queue.remove(job)
                        self._start(job)
                        started = True
                        break

    def _start(self, job: LocalJob) -> None:
        allocation = self.cluster.allocate(job.processors, owner=job.name, kind="local")
        job.start_time = self.env.now
        process = Process(self.env, self._run(job, allocation))
        self._running[allocation.allocation_id] = (job, allocation, process)

    def _run(self, job: LocalJob, allocation):
        try:
            yield self.env.timeout(job.duration)
        except Interrupt:
            pass  # killed by a node failure: terminate early
        self._running.pop(allocation.allocation_id, None)
        if allocation.active:
            allocation.release()
        job.finish_time = self.env.now
        self.finished_count += 1
        done = self._completion_events.pop(job.job_id, None)
        if done is not None and not done.triggered:
            done.succeed(job)


class BackgroundLoadGenerator:
    """A stream of rigid local jobs submitted directly to one cluster's LRM."""

    def __init__(
        self,
        env: Environment,
        local_rm: LocalResourceManager,
        spec: BackgroundLoadSpec,
        rng: np.random.Generator,
        *,
        name: str = "",
    ) -> None:
        self.env = env
        self.local_rm = local_rm
        self.spec = spec
        self.rng = rng
        self.name = name or f"background@{local_rm.cluster.name}"
        self.submitted_count = 0
        if spec.enabled:
            Process(env, self._generate())

    def _generate(self):
        spec = self.spec
        if spec.start_time > 0:
            yield self.env.timeout(spec.start_time)
        while spec.end_time is None or self.env.now < spec.end_time:
            gap = float(self.rng.exponential(spec.mean_interarrival))
            yield self.env.timeout(gap)
            if spec.end_time is not None and self.env.now >= spec.end_time:
                break
            job = self._draw_job()
            self.submitted_count += 1
            self.local_rm.submit(job)

    def _draw_job(self) -> LocalJob:
        processors = int(self.rng.integers(self.spec.min_processors, self.spec.max_processors + 1))
        duration = float(self.rng.exponential(self.spec.mean_duration))
        duration = max(1.0, duration)
        return LocalJob(processors=processors, duration=duration, name=f"{self.name}-{self.submitted_count + 1}")


class KoalaInformationService(kis_module.KoalaInformationService):
    """The KIS with its poll loop as a generator process."""

    def _start(self) -> None:
        Process(self.env, self._poll_loop())

    def _poll_loop(self):
        first = self._first_poll_at
        if first is not None:
            yield self.env.timeout_at(first)
            self.poll_now()
        while True:
            yield self.env.timeout(self.poll_interval)
            self.poll_now()


class WorkloadSubmitter(submission_module.WorkloadSubmitter):
    """The workload submitter with its submission loop as a generator process."""

    def _start(self) -> None:
        Process(self.env, self._submit_loop())

    def _submit_loop(self):
        for spec in self.workload:
            if spec.submit_time > self.env.now:
                yield self.env.timeout_at(spec.submit_time)
            job = spec.build_job(self.registry)
            self._submitted += 1
            if self.retain_jobs:
                self.jobs.append(job)
                self.spec_of[job.job_id] = spec
            self.scheduler.submit(job)
        if not self.all_submitted.triggered:
            self.all_submitted.succeed(self._submitted)


class FaultInjector(injector_module.FaultInjector):
    """The fault injector with its injection loop as a generator process."""

    def _start(self) -> None:
        Process(self.env, self._inject_loop())

    def _inject_loop(self):
        for event in self._events:
            delay = event.time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            elif delay < 0:
                raise ValueError(
                    f"fault model {self.ref.canonical()!r} produced an "
                    f"out-of-order event at t={event.time:g} "
                    f"(simulation already at t={self.env.now:g})"
                )
            self._apply(event)


# ---------------------------------------------------------------------------
# The malleability layer as generator processes
# ---------------------------------------------------------------------------


class RunningApplication(runtime_module.RunningApplication):
    """The application with its computation as an interruptible generator process."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._interruptible = False
        self._process: Optional[Process] = None

    def start(self) -> "RunningApplication":
        if self._process is not None:
            raise RuntimeError(f"application {self.job_id!r} has already been started")
        self._started = True
        self._process = Process(self.env, self._compute())
        return self

    def set_allocation(self, new_size: int) -> Event:
        if self._process is None:
            raise RuntimeError(f"application {self.job_id!r} has not been started")
        if new_size < 0:
            raise ValueError("new_size must be non-negative")
        ack = self.env.event()
        if self.is_finished or new_size == self._allocation:
            ack.succeed(self._allocation)
            return ack
        self._pending.append((int(new_size), ack))
        if self._interruptible and self._process.is_alive:
            # The guard: with an interrupt in flight, a later request only
            # joins the queue.
            self._interruptible = False
            self._process.interrupt("reallocation")
        return ack

    def abort(self) -> None:
        if self._process is None or self.is_finished:
            return
        self._aborted = True
        self._end_progress()
        self.record.finish_time = self.env.now
        while self._pending:
            _, ack = self._pending.popleft()
            if not ack.triggered:
                ack.succeed(self._allocation)
        if self._interruptible and self._process.is_alive:
            self._interruptible = False
            self._process.interrupt("aborted")
        if not self.completed.triggered:
            self.completed.succeed(self.record)

    def _compute(self):
        env = self.env
        self.record.start_time = env.now
        self._record_allocation()

        while not self._aborted and self._remaining > _WORK_EPSILON:
            if self._pending:
                yield from self._serve_reconfiguration()
                continue

            if self._allocation < 1:
                pause = env.event()
                self._interruptible = True
                try:
                    yield pause
                except Interrupt:
                    pass
                finally:
                    self._interruptible = False
                continue

            time_to_finish = self._remaining / self._rate(self._allocation)
            self._begin_progress()
            self._interruptible = True
            try:
                yield env.timeout(time_to_finish)
            except Interrupt:
                pass
            finally:
                self._interruptible = False
                self._end_progress()

        if self._aborted:
            return
        self._finish()

    def _serve_reconfiguration(self):
        env = self.env
        new_size, ack = self._pending.popleft()

        wait = self._adaptation_wait()
        if wait > 0 and self._remaining > _WORK_EPSILON:
            if self._allocation >= 1:
                time_to_finish = self._remaining / self._rate(self._allocation)
                segment = min(wait, time_to_finish)
            else:
                segment = wait
            self._begin_progress()
            yield env.timeout(segment)
            self._end_progress()
            if self._aborted:
                if not ack.triggered:
                    ack.succeed(self._allocation)
                return
            if self._remaining <= _WORK_EPSILON:
                ack.succeed(self._allocation)
                return

        old = self._allocation
        cost = self.profile.reconfiguration.cost(old, new_size)
        if cost > 0:
            yield env.timeout(cost)
            if self._aborted:
                if not ack.triggered:
                    ack.succeed(self._allocation)
                return

        self._allocation = new_size
        self._record_allocation()
        self.record.reconfigurations.append(
            Reconfiguration(time=env.now, old_allocation=old, new_allocation=new_size, cost=cost)
        )
        ack.succeed(new_size)


class AfpacExecutor(execute_module.AfpacExecutor):
    """The AFPAC executor as the generator the process-based DYNACO drives."""

    def execute(self, plan: Plan, event: EnvironmentEvent):
        app = self.application
        old_allocation = app.allocation
        target = plan.strategy.target_allocation

        if plan.empty or target == old_allocation:
            return AdaptationResult(
                event=event,
                accepted_change=0,
                new_allocation=old_allocation,
                completed_at=None,
            )

        ack = app.set_allocation(target)
        adopted = yield ack

        self.executed_count += 1
        return AdaptationResult(
            event=event,
            accepted_change=adopted - old_allocation,
            new_allocation=adopted,
            completed_at=self.env.now,
        )


class Dynaco(framework_module.Dynaco):
    """DYNACO with each executed plan a generator process."""

    def adapt(self, event: EnvironmentEvent, current_allocation: int) -> Event:
        key = id(event)
        if key in self._completions:
            return self._completions[key][1]
        completion = self.env.event()
        self._completions[key] = (event, completion)
        strategy = self.decision.decide(event, current_allocation)
        plan = self.planner.plan(current_allocation, strategy)

        if plan.empty:
            result = AdaptationResult(
                event=event,
                accepted_change=0,
                new_allocation=current_allocation,
                completed_at=None,
            )
            self.history.append(result)
            completion.succeed(result)
            return completion

        self._in_flight.append(event)
        Process(self.env, self._execute(plan, event, completion))
        return completion

    def _execute(self, plan, event: EnvironmentEvent, completion: Event):
        result = yield from self.executor.execute(plan, event)
        self.history.append(result)
        if event in self._in_flight:
            self._in_flight.remove(event)
        if not completion.triggered:
            completion.succeed(result)


class RigidRunner(runners_module.RigidRunner):
    """The rigid runner with its start as a generator process."""

    def start(
        self,
        cluster_name: str,
        processors: int,
        *,
        claim: Optional[PendingClaim] = None,
        ledger: Optional[ClaimLedger] = None,
    ) -> Event:
        if self.application is not None:
            raise RuntimeError(f"job {self.job.name!r} has already been started")
        if self.job.kind is JobKind.MALLEABLE:
            raise ValueError("RigidRunner cannot run malleable jobs")
        outcome = self.env.event()
        self.cluster_name = cluster_name
        Process(self.env, self._start_process(cluster_name, processors, claim, ledger, outcome))
        return outcome

    def _start_process(self, cluster_name, processors, claim, ledger, outcome):
        endpoint = self.multicluster.gram(cluster_name)
        submission = endpoint.submit(self.job.name, processors)
        try:
            gram_job = yield submission
        except Exception:  # GramSubmissionError
            self._settle(claim, ledger)
            self.job.state = JobState.QUEUED
            outcome.succeed(False)
            return
        self._settle(claim, ledger)
        self.gram_jobs.append(gram_job)

        application = runners_module.RunningApplication(
            self.env,
            self.job.profile,
            processors,
            job_id=self.job.name,
            adaptation_point_interval=self.adaptation_point_interval,
            rng=self.rng,
        )
        application.record.submit_time = self.job.submit_time
        self.application = application
        self.job.start_time = self.env.now
        self.job.state = JobState.RUNNING
        self.job.single_component.cluster = cluster_name
        application.start()
        self.callbacks.job_started(self.job)
        outcome.succeed(True)

        record = yield application.completed
        if self._killed:
            return
        self._finish(record)


class MalleableRunner(mrunner_module.MalleableRunner):
    """The malleable runner with each operation a generator process."""

    def start(
        self,
        cluster_name: str,
        processors: int,
        *,
        claim: Optional[PendingClaim] = None,
        ledger: Optional[ClaimLedger] = None,
    ) -> Event:
        if self.application is not None:
            raise RuntimeError(f"job {self.job.name!r} has already been started")
        if self.job.kind is not JobKind.MALLEABLE:
            raise ValueError("MalleableRunner only runs malleable jobs")
        outcome = self.env.event()
        self.cluster_name = cluster_name
        Process(self.env, self._start_process(cluster_name, processors, claim, ledger, outcome))
        return outcome

    def _claim_stub_jobs(self, count: int):
        endpoint = self.multicluster.gram(self.cluster_name)
        submissions = [endpoint.submit(self.job.name, 1) for _ in range(count)]
        granted: List[GramJob] = []
        for submission in submissions:
            try:
                gram_job = yield submission
            except Exception:  # GramSubmissionError: that stub was refused
                continue
            granted.append(gram_job)
        return granted

    def _start_process(self, cluster_name, processors, claim, ledger, outcome):
        granted = yield from self._claim_stub_jobs(processors)
        self._settle(claim, ledger)
        if len(granted) < processors:
            endpoint = self.multicluster.gram(cluster_name)
            for gram_job in granted:
                endpoint.release(gram_job)
            if granted:
                self.callbacks.processors_released(cluster_name)
            self.job.state = JobState.QUEUED
            outcome.succeed(False)
            return

        self.gram_jobs.extend(granted)
        application = mrunner_module.RunningApplication(
            self.env,
            self.job.profile,
            processors,
            job_id=self.job.name,
            adaptation_point_interval=self.adaptation_point_interval,
            rng=self.rng,
        )
        application.record.submit_time = self.job.submit_time
        self.application = application
        self.dynaco = mrunner_module.Dynaco(
            self.env,
            decision=MalleabilityDecision(
                self.job.minimum_processors,
                self.job.maximum_processors,
                self.job.profile.constraint,
            ),
            planner=MalleabilityPlanner(),
            executor=AfpacExecutor(self.env, application),
            monitor=self.monitor,
        )
        self.job.start_time = self.env.now
        self.job.state = JobState.RUNNING
        self.job.single_component.cluster = cluster_name
        application.start()
        self.callbacks.job_started(self.job)
        outcome.succeed(True)

        record = yield application.completed
        if self._killed:
            return
        self._finish(record)

    def survive_failure(self, lost: int) -> Event:
        done = self.env.event()
        application = self.application
        if (
            lost <= 0
            or application is None
            or application.is_finished
            or self.dynaco is None
            or lost > len(self.gram_jobs)
        ):
            done.succeed(0)
            return done
        self._release_gram_jobs(self.gram_jobs[-lost:])
        Process(self.env, self._survive_process(lost, done))
        return done

    def _survive_process(self, lost, done):
        application = self.application
        current = application.allocation
        event = self.monitor.on_shrink_message(self.env.now, lost, current, mandatory=True)
        result = yield self.dynaco.adapt(event, current)
        released = max(0, -result.accepted_change)
        if released > lost:
            extra = min(released - lost, len(self.gram_jobs))
            if extra > 0:
                self._release_gram_jobs(self.gram_jobs[-extra:])
        if released > 0:
            self.shrink_operations += 1
        done.succeed(released)

    def grow(
        self,
        offered: int,
        *,
        claim: Optional[PendingClaim] = None,
        ledger: Optional[ClaimLedger] = None,
    ) -> Event:
        done = self.env.event()
        if (
            offered <= 0
            or self.application is None
            or self.application.is_finished
            or self.dynaco is None
        ):
            self._settle(claim, ledger)
            done.succeed(0)
            return done
        Process(self.env, self._grow_process(offered, claim, ledger, done))
        return done

    def _grow_process(self, offered, claim, ledger, done):
        self._reconfiguring = True
        try:
            application = self.application
            endpoint = self.multicluster.gram(self.cluster_name)
            usable = self.preview_grow(offered)
            if usable == 0 or application.is_finished:
                self._settle(claim, ledger)
                done.succeed(0)
                return

            granted = yield from self._claim_stub_jobs(usable)
            self._settle(claim, ledger)
            if not granted or application.is_finished:
                for gram_job in granted:
                    endpoint.release(gram_job)
                if granted:
                    self.voluntarily_released += len(granted)
                    self.callbacks.processors_released(self.cluster_name)
                done.succeed(0)
                return

            adopted_extra = self.preview_grow(len(granted))
            surplus = granted[adopted_extra:]
            keep = granted[:adopted_extra]
            for gram_job in surplus:
                endpoint.release(gram_job)
            if surplus:
                self.voluntarily_released += len(surplus)
                self.callbacks.processors_released(self.cluster_name)
            if not keep:
                done.succeed(0)
                return

            for gram_job in keep:
                yield endpoint.recruit(gram_job)
            self.gram_jobs.extend(keep)

            grow_event = self.monitor.on_grow_message(
                self.env.now, len(keep), application.allocation
            )
            result = yield self.dynaco.adapt(grow_event, application.allocation)
            actually_added = max(0, result.accepted_change)
            if actually_added < len(keep):
                unused = keep[actually_added:]
                self._release_gram_jobs(unused)
                self.voluntarily_released += len(unused)
            if actually_added > 0:
                self.grow_operations += 1
            done.succeed(actually_added)
        finally:
            self._reconfiguring = False

    def shrink(self, requested: int, *, mandatory: bool = True) -> Event:
        done = self.env.event()
        if (
            requested <= 0
            or self.application is None
            or self.application.is_finished
            or self.dynaco is None
        ):
            done.succeed(0)
            return done
        Process(self.env, self._shrink_process(requested, mandatory, done))
        return done

    def _shrink_process(self, requested, mandatory, done):
        self._reconfiguring = True
        try:
            application = self.application
            current = application.allocation
            event = self.monitor.on_shrink_message(self.env.now, requested, current, mandatory)
            result = yield self.dynaco.adapt(event, current)
            released = max(0, -result.accepted_change)
            if released > 0:
                to_release = self.gram_jobs[-released:]
                self._release_gram_jobs(to_release)
                self.shrink_operations += 1
            done.succeed(released)
        finally:
            self._reconfiguring = False


class MalleabilityManager(manager_module.MalleabilityManager):
    """The malleability manager with a shrink campaign's waits as processes."""

    def make_room(self, cluster_name: str, needed: int) -> Optional[Event]:
        runners = self.scheduler.running_malleable_runners(cluster_name)
        if not runners or needed <= 0:
            return None
        directives = self.policy.plan_shrink(runners, needed)
        if not directives:
            return None
        release_events: List[Event] = []
        for directive in directives:
            self.shrink_messages.increment(self.env.now)
            self.operations.increment(self.env.now)
            release_events.append(directive.runner.shrink(directive.requested, mandatory=True))
        done = self.env.event()
        Process(self.env, self._await_releases(release_events, done))
        return done

    def _await_releases(self, release_events: Sequence[Event], done: Event):
        total = 0
        for event in release_events:
            released = yield event
            total += int(released or 0)
        if not done.triggered:
            done.succeed(total)

    def make_room_for_job(self, job) -> bool:
        if self._make_room_in_flight:
            return False
        size = job.total_processors
        idle_view = self.scheduler.effective_idle_processors()
        best: Optional[tuple] = None
        for cluster_name in self.scheduler.cluster_names():
            idle = idle_view.get(cluster_name, 0)
            needed = size - idle
            if needed <= 0:
                return False
            potential = self.shrink_potential(cluster_name)
            if potential >= needed:
                key = (needed, -potential)
                if best is None or key < best[0]:
                    best = (key, cluster_name, needed)
        if best is None:
            return False
        _, cluster_name, needed = best
        campaign = self.make_room(cluster_name, needed)
        if campaign is None:
            return False
        self._make_room_in_flight = True
        Process(self.env, self._campaign_end(campaign))
        return True

    def _campaign_end(self, campaign: Event):
        yield campaign
        self._make_room_in_flight = False
        self.scheduler.scan_queue()
