"""Process-based reference copies of the services that became callback chains.

These are the process-based :class:`GramEndpoint`,
:class:`LocalResourceManager` and :class:`BackgroundLoadGenerator` the
cluster layer shipped before it became process-free: each GRAM submission a
process behind a ``Resource`` gatekeeper, the local dispatcher a process
re-arming a ``wakeup | released`` condition, each local job a process, and
each cluster's background load a generator process.  The class bodies are
kept unchanged, except that the kernel no longer has a counted resource or
composite events: :class:`Resource` and :func:`any_of` below are copies of
the parts of them these classes use, and ``wakeup | released`` is spelled
``any_of(env, [wakeup, released])``.

:class:`KoalaInformationService`, :class:`WorkloadSubmitter` and
:class:`FaultInjector` subclass the shipped classes and start the poll loop,
the submission loop and the injection loop as the generator processes they
were before they became callback chains.

``test_reference_equivalence`` runs small systems dense in same-instant ties
with these classes patched in and as shipped, and requires identical
outcomes, so any later change to the event structure of any of them is
checked against this drain order.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.background import BackgroundLoadSpec
from repro.cluster.cluster import Cluster
from repro.cluster.gram import GramJob, GramSubmissionError
from repro.cluster.local_rm import LocalJob
from repro.faults import injector as injector_module
from repro.koala import kis as kis_module
from repro.sim.core import Environment
from repro.sim.events import PENDING, Event, Interrupt
from repro.sim.process import Process
from repro.workloads import submission as submission_module


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
        self.env.process(self._submission(job, done))
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
        self._finished: List[LocalJob] = []
        #: Running jobs keyed by allocation id (for fault injection).
        self._running: Dict[int, "tuple[LocalJob, Allocation, Process]"] = {}
        self._wakeup: Optional[Event] = None
        self._dispatcher = env.process(self._dispatch_loop())

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

    @property
    def finished_jobs(self) -> List[LocalJob]:
        """Local jobs that have completed, in completion order."""
        return list(self._finished)

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
        process = self.env.process(self._run(job, allocation))
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
        self._finished.append(job)
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
        #: All local jobs generated so far.
        self.jobs: List[LocalJob] = []
        if spec.enabled:
            env.process(self._generate())

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
            self.jobs.append(job)
            self.local_rm.submit(job)

    def _draw_job(self) -> LocalJob:
        processors = int(self.rng.integers(self.spec.min_processors, self.spec.max_processors + 1))
        duration = float(self.rng.exponential(self.spec.mean_duration))
        duration = max(1.0, duration)
        return LocalJob(processors=processors, duration=duration, name=f"{self.name}-{len(self.jobs) + 1}")

    @property
    def submitted_count(self) -> int:
        """Number of background jobs submitted so far."""
        return len(self.jobs)


class KoalaInformationService(kis_module.KoalaInformationService):
    """The KIS with its poll loop as a generator process."""

    def start_polling(self) -> None:
        if not self._polling:
            self._polling = True
            self.env.process(self._poll_loop())

    def _poll_loop(self):
        first = self._first_poll_at
        if first is not None:
            self.next_poll_time = first
            yield self.env.timeout_at(first)
            self.poll_now()
        while True:
            self.next_poll_time = self.env.now + self.poll_interval
            yield self.env.timeout(self.poll_interval)
            self.poll_now()


class WorkloadSubmitter(submission_module.WorkloadSubmitter):
    """The workload submitter with its submission loop as a generator process."""

    def _start(self) -> None:
        self.env.process(self._submit_loop())

    def _submit_loop(self):
        for spec in islice(iter(self.workload), self.start_index, None):
            if spec.submit_time > self.env.now:
                yield self.env.timeout_at(spec.submit_time)
            job = spec.build_job(self.registry)
            self._submitted += 1
            if self.retain_jobs:
                self.jobs.append(job)
                self.spec_of[job.job_id] = spec
            self.scheduler.submit(job)
        if not self.all_submitted.triggered:
            self.all_submitted.succeed(self.cursor)


class FaultInjector(injector_module.FaultInjector):
    """The fault injector with its injection loop as a generator process."""

    def _start(self) -> None:
        self.env.process(self._inject_loop())

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
