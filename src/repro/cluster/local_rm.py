"""SGE-like local resource manager.

Each DAS-3 cluster runs the Sun Grid Engine configured for exclusive,
space-shared node allocation.  Local users submit rigid jobs directly to the
SGE instance, *bypassing* KOALA; the paper explicitly calls out that a
multicluster scheduler must be resilient to that background load.

:class:`LocalResourceManager` reproduces the relevant behaviour: a FCFS
queue of rigid local jobs, each holding a fixed number of nodes for a fixed
duration, with optional EASY-style backfilling (disabled by default to match
the plain FCFS configuration used on the testbed).

The manager creates no simulation process.  Its dispatcher is a callback
chain whose links sit at the heap positions of the former dispatcher
process's events:

* construction schedules an URGENT relay (the process's ``Initialize``) that
  dispatches once and arms;
* arming takes one wake event from :meth:`Cluster.when_released
  <repro.cluster.cluster.Cluster.when_released>`; the next release on the
  cluster or the next submission, whichever comes first, succeeds it, and
  later ones find it triggered and schedule nothing;
* the wake's callback schedules a NORMAL relay (the process's ``Condition``
  event), whose callback dispatches and re-arms.

A started local job is its completion timeout, whose callback releases the
allocation and finishes the job.  The timeout is pushed when the job starts,
where the former job process's ``Initialize`` would have pushed it; only a
job the first (URGENT) dispatch starts pushes it one URGENT *launch* relay
later, as that ``Initialize`` then fired behind the URGENT events already
queued.  :meth:`LocalResourceManager.fail_allocation` kills a job by clearing
the callbacks of that timeout, or of the launch relay if the job has not
launched yet (it then fires empty), and finishing the job one URGENT relay
later, where the interrupt of the former job process was delivered.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Deque, Dict, Optional, Tuple

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event

_local_job_ids = count(1)


@dataclass
class LocalJob:
    """A rigid job submitted directly to a cluster's local resource manager."""

    processors: int
    duration: float
    name: str = ""
    job_id: int = field(default_factory=_local_job_ids.__next__)
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("local jobs need at least one processor")
        if self.duration <= 0:
            raise ValueError("local jobs need a positive duration")
        if not self.name:
            self.name = f"local-{self.job_id}"

    @property
    def finished(self) -> bool:
        """Whether the job has completed."""
        return self.finish_time is not None

    @property
    def wait_time(self) -> float:
        """Queue wait time (valid once the job has started)."""
        if self.submit_time is None or self.start_time is None:
            raise ValueError(f"job {self.name!r} has not started")
        return self.start_time - self.submit_time


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
        #: Local jobs that have completed so far.  A count, not a list: a
        #: run (and every checkpoint of it) stays flat however long it is.
        self.finished_count = 0
        #: Running jobs keyed by allocation id (for fault injection), each
        #: with its completion timeout (or its launch relay, until that fires).
        self._running: Dict[int, Tuple[LocalJob, Allocation, Event]] = {}
        #: The armed wake event (``None`` until the first dispatch).
        self._wake: Optional[Event] = None
        env.relay(partial(self._dispatch, deferred=True), URGENT)

    # -- public interface ------------------------------------------------------

    def submit(self, job: LocalJob) -> Event:
        """Queue *job*; returns an event that succeeds (with the job) at completion."""
        job.submit_time = self.env.now
        done = Event(self.env)
        self._completion_events[job.job_id] = done
        self._queue.append(job)
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed()
        return done

    @property
    def queue_length(self) -> int:
        """Number of local jobs waiting to start."""
        return len(self._queue)

    def fail_allocation(self, allocation: Allocation) -> bool:
        """Kill the running local job holding *allocation* (a node failed).

        Local jobs are rigid: losing any node terminates the whole job early.
        Returns ``True`` if a job was killed, ``False`` when the allocation is
        not one of this manager's running jobs.  The job's completion timeout
        (or, for a job not launched yet, its launch relay) is left to fire
        empty, and the job releases its processors and finishes one URGENT
        relay later, before the NORMAL events of the instant — the fault
        injector marks the dead ones failed *before* calling this, so the
        release cannot be double-promised.
        """
        # Popped immediately: a second failure striking the same job in the
        # same instant (e.g. two trace lines at one timestamp) must be a
        # no-op, not a second kill.
        entry = self._running.pop(allocation.allocation_id, None)
        if entry is None:
            return False
        job, allocation, handle = entry
        handle.callbacks.clear()
        self.env.relay(partial(self._finish, job, allocation), URGENT)
        return True

    # -- dispatcher -------------------------------------------------------------

    def _arm(self) -> None:
        # Sleep until either a new submission arrives or processors are
        # released on the cluster.
        self._wake = wake = self.cluster.when_released()
        wake.callbacks.append(self._woken)

    def _woken(self, _event: Event) -> None:
        self.env.relay(self._dispatch)

    def _dispatch(self, _event: Event, deferred: bool = False) -> None:
        # Jobs started by the first dispatch (submitted before the manager's
        # first instant ran) launch one URGENT hop later, behind the URGENT
        # events already queued, as the Initialize of their job process did.
        self._start_eligible_jobs(deferred)
        self._arm()

    def _start_eligible_jobs(self, deferred: bool) -> None:
        started = True
        while started:
            started = False
            if not self._queue:
                return
            head = self._queue[0]
            if head.processors <= self.cluster.idle_processors:
                self._queue.popleft()
                self._start(head, deferred)
                started = True
            elif self.backfilling:
                # Start the first later job that fits (no reservation for the
                # head, i.e. aggressive backfilling).
                for job in list(self._queue)[1:]:
                    if job.processors <= self.cluster.idle_processors:
                        self._queue.remove(job)
                        self._start(job, deferred)
                        started = True
                        break

    def _start(self, job: LocalJob, deferred: bool) -> None:
        allocation = self.cluster.allocate(job.processors, owner=job.name, kind="local")
        job.start_time = self.env.now
        if deferred:
            # Until it fires, the launch relay is the job's handle, so a kill
            # in between cancels the launch.
            launch = self.env.relay(partial(self._launch, job, allocation), URGENT)
            self._running[allocation.allocation_id] = (job, allocation, launch)
        else:
            self._launch(job, allocation)

    def _launch(
        self, job: LocalJob, allocation: Allocation, _event: Optional[Event] = None
    ) -> None:
        completion = self.env.timeout(job.duration)
        completion.callbacks.append(partial(self._finish, job, allocation))
        self._running[allocation.allocation_id] = (job, allocation, completion)

    def _finish(self, job: LocalJob, allocation: Allocation, _event: Event) -> None:
        self._running.pop(allocation.allocation_id, None)
        if allocation.active:
            allocation.release()
        job.finish_time = self.env.now
        self.finished_count += 1
        done = self._completion_events.pop(job.job_id, None)
        if done is not None and not done.triggered:
            done.succeed(job)
