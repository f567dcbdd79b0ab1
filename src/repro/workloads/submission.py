"""Workload submission: replaying a specification against a scheduler.

The :class:`WorkloadSubmitter` is the simulated counterpart of the paper's
single client site: it materialises each :class:`~repro.workloads.spec.JobSpec`
at its submit time and hands it to the scheduler through the runners
framework.  It also keeps the submitted jobs so the metrics layer can join
them with their execution records afterwards.

Submission happens at each spec's *absolute* submit time
(:meth:`~repro.sim.core.Environment.timeout_at`), not after a relative
delay: relative delays accumulate float rounding, whereas absolute times
make the realised submission instants a pure function of the workload.

The submitter is a callback chain, not a process: an URGENT relay where the
process's ``Initialize`` stood, then one timeout per submission instant.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.apps.profiles import ProfileRegistry, default_registry
from repro.koala.job import Job
from repro.koala.scheduler import KoalaScheduler
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event
from repro.workloads.spec import JobSpec, WorkloadSpec


class WorkloadSubmitter:
    """Submits a workload specification to a scheduler at the right times.

    Parameters
    ----------
    env, scheduler:
        Simulation environment and target scheduler.
    workload:
        The workload specification to replay.
    registry:
        Application-profile registry used to materialise job specs.
    retain_jobs:
        Whether to keep every submitted :class:`Job` (and its spec) in
        :attr:`jobs` / :attr:`spec_of`.  Long streaming runs disable this —
        at half a million jobs the retained objects dominate the resident
        set — and rely on streaming metric collection instead.

    The submitter walks the workload with ``iter(workload)``.  For a
    :class:`~repro.workloads.spec.WorkloadSpec` that is a plain list
    iterator, which pickles as a reference to the job list plus an index: a
    checkpoint holds the workload by reference (see :mod:`repro.checkpoint`),
    and the loaded run goes on from the next spec.
    """

    def __init__(
        self,
        env: Environment,
        scheduler: KoalaScheduler,
        workload: WorkloadSpec,
        *,
        registry: Optional[ProfileRegistry] = None,
        retain_jobs: bool = True,
    ) -> None:
        self.env = env
        self.scheduler = scheduler
        self.workload = workload
        self.registry = registry or default_registry()
        self.retain_jobs = bool(retain_jobs)
        #: Jobs submitted so far, in submission order (empty when
        #: ``retain_jobs`` is off).
        self.jobs: List[Job] = []
        #: Mapping from job to the spec it was built from.
        self.spec_of: Dict[int, JobSpec] = {}
        self._submitted = 0
        #: Succeeds when the last job of the workload has been submitted.
        self.all_submitted: Event = env.event()
        self._specs: Optional[Iterator[JobSpec]] = None
        #: The spec whose submission timeout is pending, if any.
        self._waiting: Optional[JobSpec] = None
        self._start()

    @property
    def submitted_count(self) -> int:
        """Number of jobs submitted by this submitter."""
        return self._submitted

    def _start(self) -> None:
        """Start the chain: an URGENT relay to its first link."""
        self.env.relay(self._submit_link, URGENT)

    def _submit_link(self, _event: Event) -> None:
        """Submit the waiting spec, then each due one; arm the next's timeout."""
        if self._specs is None:
            self._specs = iter(self.workload)
        else:
            spec, self._waiting = self._waiting, None
            self._submit(spec)
        now = self.env.now
        for spec in self._specs:
            if spec.submit_time > now:
                self._waiting = spec
                self.env.timeout_at(spec.submit_time).callbacks.append(self._submit_link)
                return
            self._submit(spec)
        if not self.all_submitted.triggered:
            self.all_submitted.succeed(self._submitted)

    def _submit(self, spec: JobSpec) -> None:
        job = spec.build_job(self.registry)
        self._submitted += 1
        if self.retain_jobs:
            self.jobs.append(job)
            self.spec_of[job.job_id] = spec
        self.scheduler.submit(job)
