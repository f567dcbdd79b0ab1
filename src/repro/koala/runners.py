"""The KOALA runners framework and the runner for rigid jobs.

Runners are the auxiliary tools through which users submit jobs and through
which the scheduler controls their execution; different application types
have different runners, all built on a common framework that interfaces them
with the centralized scheduler (Figure 1 of the paper).  The malleable runner
lives in :mod:`repro.koala.mrunner`; this module provides the shared base
class and the runner used for rigid (and moldable) jobs.

A runner is a callback chain, not a process.  :meth:`JobRunner.start` queues
an URGENT relay that makes the GRAM submission, so submissions made in one
instant reach GRAM in the order their runners were started; the submission's
callback starts the application, whose completion calls the runner's
completion link.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import List, Optional, Protocol

import numpy as np

from repro.apps.runtime import ExecutionRecord, RunningApplication
from repro.cluster.gram import GramJob
from repro.cluster.multicluster import Multicluster
from repro.koala.claiming import ClaimLedger, PendingClaim
from repro.koala.job import Job, JobKind, JobState
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event


class SchedulerCallbacks(Protocol):
    """The scheduler-side interface runners report back to."""

    def job_started(self, job: Job) -> None:
        """Called once the job's application has started executing."""

    def job_finished(self, job: Job, record: ExecutionRecord) -> None:
        """Called once the job's application has finished and released everything."""

    def job_failed(self, job: Job, reason: str) -> None:
        """Called when the runner definitively gives up on the job."""

    def processors_released(self, cluster_name: str) -> None:
        """Called whenever the runner returns processors to *cluster_name*."""


class JobRunner(ABC):
    """Base class of runners: claims processors, runs the application, reports back.

    Parameters
    ----------
    env, job, multicluster:
        Simulation environment, the job to run and the system to run it on.
    callbacks:
        Scheduler-side callbacks (see :class:`SchedulerCallbacks`).
    adaptation_point_interval:
        Passed through to the application runtime (only meaningful for
        malleable applications).
    rng:
        Random stream used for application-side variability.
    """

    def __init__(
        self,
        env: Environment,
        job: Job,
        multicluster: Multicluster,
        callbacks: SchedulerCallbacks,
        *,
        adaptation_point_interval: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.env = env
        self.job = job
        self.multicluster = multicluster
        self.callbacks = callbacks
        self.adaptation_point_interval = adaptation_point_interval
        self.rng = rng
        self.cluster_name: Optional[str] = None
        self.application: Optional[RunningApplication] = None
        self.gram_jobs: List[GramJob] = []
        #: Set by :meth:`kill`; tells the completion link not to report the
        #: aborted execution as a completion.
        self._killed = False
        #: Succeeds with the job's :class:`ExecutionRecord` when it finishes.
        self.completed: Event = env.event()

    # -- interface used by the scheduler ------------------------------------

    @abstractmethod
    def start(
        self,
        cluster_name: str,
        processors: int,
        *,
        claim: Optional[PendingClaim] = None,
        ledger: Optional[ClaimLedger] = None,
    ) -> Event:
        """Claim *processors* on *cluster_name* and start the application.

        Returns an event that succeeds with ``True`` once the application is
        running, or with ``False`` if claiming failed (in which case any
        partially claimed processors have been released and the scheduler
        should re-queue the job).  The optional *claim*/*ledger* pair is
        settled as soon as the claiming outcome is known.
        """

    @property
    def current_allocation(self) -> int:
        """Processors the job currently holds."""
        if self.application is not None and not self.application.is_finished:
            return self.application.allocation
        return 0

    @property
    def is_running(self) -> bool:
        """Whether the application is currently executing."""
        return self.application is not None and self.application.is_running

    @property
    def start_time(self) -> Optional[float]:
        """When the application started executing (``None`` before that)."""
        return self.job.start_time

    @property
    def killed(self) -> bool:
        """Whether this runner's execution was killed by a node failure."""
        return self._killed

    def kill(self, reason: str) -> None:
        """Abort the execution because processors under it failed.

        Aborts the application (whatever work it did is lost) and releases
        every GRAM job still held — the scheduler decides afterwards whether
        the job is resubmitted or abandoned (see
        :meth:`~repro.koala.scheduler.KoalaScheduler.fail_job`).  Idempotent.
        """
        if self._killed:
            return
        self._killed = True
        self.job.failure_reason = reason
        application = self.application
        if application is not None and not application.is_finished:
            application.abort()
        self._release_gram_jobs(list(self.gram_jobs))

    # -- shared helpers ---------------------------------------------------------

    def _settle(self, claim: Optional[PendingClaim], ledger: Optional[ClaimLedger]) -> None:
        if claim is not None and ledger is not None:
            ledger.settle(claim)

    def _release_gram_jobs(self, jobs: List[GramJob]) -> None:
        if not jobs or self.cluster_name is None:
            return
        endpoint = self.multicluster.gram(self.cluster_name)
        for gram_job in jobs:
            endpoint.release(gram_job)
            if gram_job in self.gram_jobs:
                self.gram_jobs.remove(gram_job)
        self.callbacks.processors_released(self.cluster_name)

    def _completed(self, completed: Event) -> None:
        """The completion link, on the application's :attr:`completed` event."""
        if self._killed:
            # Aborted by a node failure: kill()/fail_job() own the cleanup
            # and the (possible) resubmission; this execution never finished.
            return
        self._finish(completed.value)

    def _finish(self, record: ExecutionRecord) -> None:
        self.job.finish_time = self.env.now
        self.job.state = JobState.FINISHED
        self._release_gram_jobs(list(self.gram_jobs))
        if not self.completed.triggered:
            self.completed.succeed(record)
        self.callbacks.job_finished(self.job, record)


class RigidRunner(JobRunner):
    """Runner for rigid and moldable jobs: one GRAM job, fixed size."""

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
        self.env.relay(
            partial(self._submit, cluster_name, processors, claim, ledger, outcome), URGENT
        )
        return outcome

    def _submit(self, cluster_name, processors, claim, ledger, outcome, _relay) -> None:
        submission = self.multicluster.gram(cluster_name).submit(self.job.name, processors)
        submission.callbacks.append(
            partial(self._submitted, cluster_name, processors, claim, ledger, outcome)
        )

    def _submitted(self, cluster_name, processors, claim, ledger, outcome, submission) -> None:
        self._settle(claim, ledger)
        if not submission.ok:  # GramSubmissionError
            self.job.state = JobState.QUEUED
            outcome.succeed(False)
            return
        self.gram_jobs.append(submission.value)

        application = RunningApplication(
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
        application.completed.callbacks.append(self._completed)


class RunnersFramework:
    """Creates the appropriate runner for each submitted job.

    The framework is the piece of KOALA that lets new application types be
    supported by plugging in new runners; registering a custom runner class
    for a job kind is all that is needed.
    """

    def __init__(
        self,
        env: Environment,
        multicluster: Multicluster,
        callbacks: SchedulerCallbacks,
        *,
        adaptation_point_interval: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.env = env
        self.multicluster = multicluster
        self.callbacks = callbacks
        self.adaptation_point_interval = adaptation_point_interval
        self.rng = rng
        self._runner_classes = {
            JobKind.RIGID: RigidRunner,
            JobKind.MOLDABLE: RigidRunner,
        }

    def register_runner_class(self, kind: JobKind, runner_class) -> None:
        """Use *runner_class* for jobs of *kind*."""
        self._runner_classes[kind] = runner_class

    def create_runner(self, job: Job) -> JobRunner:
        """Instantiate the runner responsible for *job*."""
        try:
            runner_class = self._runner_classes[job.kind]
        except KeyError:
            raise ValueError(f"no runner registered for {job.kind!r}") from None
        return runner_class(
            self.env,
            job,
            self.multicluster,
            self.callbacks,
            adaptation_point_interval=self.adaptation_point_interval,
            rng=self.rng,
        )
