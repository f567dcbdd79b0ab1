"""GRAM-like job submission endpoints.

KOALA starts processes on a cluster through the Globus GRAM service of that
cluster.  GRAM itself cannot manage malleable jobs, so the paper's MRunner
manages every malleable application as *a collection of GRAM jobs of size 1*:
growing submits new size-1 GRAM jobs (each paying the full submission
latency, although these submissions overlap with application execution), and
shrinking releases some of them once the application has given the
processors back.

To cut the cost of turning a new GRAM job into an application process, GRAM
submissions launch an empty *stub*; recruiting the stub into the application
during the process-management phase is much faster than a full submission
because it skips security enforcement and queue management.  The endpoint
therefore exposes two latencies:

* ``submission_latency`` — submit-to-active time of a GRAM job (stub started);
* ``recruit_latency`` — time to turn an active stub into an application
  process.

The endpoint creates no simulation process.  A submission is a chain of
event callbacks, each link a kernel relay (:meth:`Environment.relay
<repro.sim.core.Environment.relay>`) or the latency timeout, and each at the
heap position the hops of the former submission process and its gatekeeper
``Resource`` had: an URGENT *arrival* relay (the process's ``Initialize``)
queues the submission and grants free gatekeeper slots in arrival order; a
NORMAL *grant* relay (the slot's ``Request`` event) draws the jittered
latency and starts the latency timeout; the timeout's callback frees the slot
with a NORMAL *free* relay (the slot's ``Release`` event, whose firing grants
the queue head), then allocates and settles the submission.  Without a
gatekeeper the arrival relay draws the latency itself.

A jittered latency is ``latency * (1 + u)`` with ``u`` uniform on
``[-jitter, jitter)``.  ``u`` is drawn as ``Generator.uniform(-jitter,
jitter)`` would draw it, ``low + (high - low) * random()``, without the cost
of the numpy call: each draw takes one double from the cluster's stream, so
the values and the stream position after every draw are numpy's.  The
endpoint draws one value per latency and never a block ahead: a pre-drawn
block would run the stream's state past what the simulation consumed, so a
capture of ``bit_generator.state`` would have to carry the unused rest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event

_gram_job_ids = count(1)


class GramSubmissionError(RuntimeError):
    """Raised when a GRAM submission cannot obtain its processors."""

    def __init__(self, cluster_name: str, requested: int, idle: int) -> None:
        super().__init__(
            f"GRAM submission of {requested} processor(s) failed on {cluster_name!r}: "
            f"only {idle} idle"
        )
        self.cluster_name = cluster_name
        self.requested = requested
        self.idle = idle


@dataclass(eq=False)
class GramJob:
    """One GRAM job: an allocation plus its lifecycle timestamps.

    Compared by identity: ``gram_id`` is unique, so two jobs are the same
    job exactly when they are the same object.
    """

    owner: str
    processors: int
    gram_id: int = field(default_factory=_gram_job_ids.__next__)
    submitted_at: Optional[float] = None
    active_at: Optional[float] = None
    released_at: Optional[float] = None
    allocation: Optional[Allocation] = None

    @property
    def active(self) -> bool:
        """Whether the job currently holds processors."""
        return self.allocation is not None and self.allocation.active


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
        #: Gatekeeper slots held by granted submissions, from the grant to
        #: the end of their latency.
        self._held = 0
        #: Submissions waiting for a gatekeeper slot, in arrival order.
        self._waiting: Deque[Tuple[GramJob, Event]] = deque()
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
        # ``uniform(low, high)`` as numpy computes it (see the module doc).
        high = self.latency_jitter
        low = -high
        factor = 1.0 + (low + (high - low) * self._rng.random())
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
        if self.max_concurrent_submissions is None:
            self.env.relay(partial(self._start_latency, job, done), URGENT)
        else:
            self.env.relay(partial(self._arrive, job, done), URGENT)
        return done

    def _arrive(self, job: GramJob, done: Event, _event: Event) -> None:
        self._waiting.append((job, done))
        self._grant()

    def _grant(self, _event: Optional[Event] = None) -> None:
        """Grant free gatekeeper slots to the waiting submissions, head first."""
        waiting = self._waiting
        limit = self.max_concurrent_submissions
        while waiting and self._held < limit:
            job, done = waiting.popleft()
            self._held += 1
            self.env.relay(partial(self._start_latency, job, done))

    def _start_latency(self, job: GramJob, done: Event, _event: Event) -> None:
        timeout = self.env.timeout(self._jittered(self.submission_latency))
        timeout.callbacks.append(partial(self._complete, job, done))

    def _complete(self, job: GramJob, done: Event, _event: Event) -> None:
        if self.max_concurrent_submissions is not None:
            self._held -= 1
            self.env.relay(self._grant)
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
