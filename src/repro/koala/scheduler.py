"""The KOALA scheduler extended with malleability support.

The scheduler ties everything together: it receives job submissions through
the runners framework, places jobs on clusters with one of the placement
policies, keeps unplaceable jobs in the placement queue with a retry
threshold, and periodically polls the KOALA information service (so
background load is accounted for).

Since the policy-API redesign the scheduler is an *event-driven core*: it
emits the typed events of :mod:`repro.policies.hooks` (``job_submitted``,
``job_placed``, ``job_started``, ``job_ended``, ``processors_freed``,
``kis_updated``) through a :class:`~repro.policies.hooks.HookDispatcher`, and
all three policy axes — the placement policy, the malleability policy and the
job-management approach — are subscribed to it uniformly.  The PRA/PWA
approaches map the trigger events onto their job-management round; policies
that need scheduler state (such as the EASY-backfilling placement policy)
capture it via ``on_attach`` and their own event hooks.  Policies are
resolved through the unified registry (:mod:`repro.policies.registry`), so
configurations may name them (``"WF"``), parameterise them
(``"EASY?reserve_depth=2"``) or inject constructed instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Union

from repro.apps.runtime import ExecutionRecord
from repro.cluster.multicluster import Multicluster
from repro.koala.claiming import ClaimLedger
from repro.koala.job import Job, JobKind, JobState
from repro.koala.kis import KisSnapshot, KoalaInformationService
from repro.koala.mrunner import MalleableRunner
from repro.koala.placement import PlacementPolicy
from repro.koala.queue import PlacementQueue
from repro.koala.runners import JobRunner, RunnersFramework
from repro.policies.hooks import (
    HookDispatcher,
    JobEnded,
    JobFailed,
    JobPlaced,
    JobStarted,
    JobSubmitted,
    KisUpdated,
    ProcessorsFreed,
    TriggerOnSchedulingEvents,
)
from repro.policies.registry import PolicySpec, build_policy, spec_string
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams

#: A policy reference as accepted by the configuration: a registered name
#: (``"WF"``), a parameterised form (``"EASY?reserve_depth=2"`` or a
#: mapping), a :class:`~repro.policies.registry.PolicySpec`, or an
#: already-constructed policy instance.
PolicyRef = Union[str, dict, PolicySpec, object]


def _normalize_policy_field(kind: str, value) -> object:
    """Validate and canonicalise one policy field at config construction.

    Strings, mappings and :class:`PolicySpec`\\ s are parsed against the
    registry — so a typo'd name fails *here*, with the registered names
    listed, not deep inside ``KoalaScheduler.__init__`` — and normalised to
    their canonical string form.  ``None`` and constructed instances pass
    through unchanged.
    """
    if value is None or not isinstance(value, (str, dict, PolicySpec)):
        return value
    return spec_string(kind, value)


@dataclass
class SchedulerConfig:
    """Configuration of one scheduler instance.

    Attributes
    ----------
    placement_policy:
        Placement policy reference (``"WF"``, ``"CF"``, ``"CM"``, ``"FCM"``,
        ``"EASY"``, a parameterised form such as ``"EASY?reserve_depth=2"``,
        or an instance).  The paper's experiments all use Worst-Fit.
    malleability_policy:
        Malleability management policy reference (``"FPSMA"``, ``"EGS"``,
        ``"EQUIPARTITION"``, ``"FOLDING"``, ``"AVERAGE_STEAL"``, ...) or
        ``None`` to disable malleability management entirely.
    approach:
        Job-management approach reference (``"PRA"`` or ``"PWA"``).
    grow_threshold:
        Idle processors per cluster that grow operations must leave free for
        local users.
    grow_offer_mode:
        ``"released"`` (default) offers only processors that became available
        since the last trigger; ``"idle"`` offers all effectively idle
        processors (see
        :class:`~repro.malleability.manager.MalleabilityManager`).
    poll_interval:
        Period (seconds) of the KOALA information-service poll that triggers
        job management.
    max_placement_tries:
        Placement retries before a submission fails (``None`` = unlimited,
        which the paper's experiments effectively use since all 300 jobs run).
    adaptation_point_interval:
        Spacing of AFPAC adaptation points inside applications.

    Policy references are validated against the unified registry when the
    configuration is constructed; unknown names raise immediately with the
    registered names listed.
    """

    placement_policy: PolicyRef = "WF"
    malleability_policy: Optional[PolicyRef] = "FPSMA"
    approach: PolicyRef = "PRA"
    grow_threshold: int = 0
    grow_offer_mode: str = "released"
    poll_interval: float = 15.0
    max_placement_tries: Optional[int] = None
    adaptation_point_interval: float = 2.0
    extra: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.placement_policy = _normalize_policy_field(
            "placement", self.placement_policy
        )
        self.malleability_policy = _normalize_policy_field(
            "malleability", self.malleability_policy
        )
        self.approach = _normalize_policy_field("approach", self.approach)


class _QueueScanHooks(TriggerOnSchedulingEvents):
    """Default job management when malleability is disabled: scan the queue.

    Subscribed instead of a :class:`JobManagementApproach` when no
    malleability policy is configured; the shared
    :class:`~repro.policies.hooks.TriggerOnSchedulingEvents` wiring keeps
    the trigger conditions identical in both modes (``trigger()`` falls back
    to a plain queue scan when no approach is installed).
    """


class KoalaScheduler:
    """The central KOALA scheduler (co-allocator + processor claimer).

    Parameters
    ----------
    env, multicluster:
        Simulation environment and the system to schedule on.
    config:
        Scheduler configuration (defaults reproduce the paper's setup:
        Worst-Fit placement, FPSMA policy, PRA approach).
    streams:
        Named random streams for application-side variability.

    Attributes
    ----------
    hooks:
        The :class:`~repro.policies.hooks.HookDispatcher` through which the
        scheduler emits its typed events.  The placement policy, the
        malleability policy and the job-management approach are subscribed in
        that order; additional observers may subscribe freely.
    """

    def __init__(
        self,
        env: Environment,
        multicluster: Multicluster,
        config: Optional[SchedulerConfig] = None,
        *,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.env = env
        self.multicluster = multicluster
        self.config = config or SchedulerConfig()
        self.streams = streams if streams is not None else RandomStreams(seed=0)

        self.hooks = HookDispatcher(self)
        self.placement_policy: PlacementPolicy = build_policy(
            "placement", self.config.placement_policy
        )
        self.kis = KoalaInformationService(
            env,
            multicluster,
            poll_interval=self.config.poll_interval,
            # The shard engine passes the absolute time of a window's first
            # poll, so the window polls on the serial run's grid.
            first_poll_at=self.config.extra.get("kis_first_poll_at"),
        )
        self.ledger = ClaimLedger()
        #: Struct-of-arrays state of the multicluster; the ledger mirrors its
        #: pending totals into it, which keeps ``state.effective_view()`` —
        #: the view every placement and grow decision reads — incrementally
        #: maintained instead of rebuilt per query.
        self._state = multicluster.state
        self.ledger.bind_state(self._state)
        self.queue = PlacementQueue(max_tries=self.config.max_placement_tries)
        self.runners = RunnersFramework(
            env,
            multicluster,
            callbacks=self,
            adaptation_point_interval=self.config.adaptation_point_interval,
            rng=self.streams["applications"],
        )
        self.runners.register_runner_class(JobKind.MALLEABLE, MalleableRunner)

        #: Runner of every job the scheduler has accepted, keyed by job id.
        self._runners: Dict[int, JobRunner] = {}
        #: Jobs whose application is currently executing.
        self._running: Dict[int, Job] = {}
        #: Running malleable runners indexed by cluster, in start order —
        #: mirrors ``_running`` so the malleability manager's per-cluster
        #: queries do not rescan every running job.
        self._running_malleable: Dict[str, List[MalleableRunner]] = {}
        #: Completed jobs with their execution records, in completion order.
        self.finished: List[Job] = []
        self.records: Dict[int, ExecutionRecord] = {}
        #: Jobs abandoned after exhausting their placement retries.
        self.failed: List[Job] = []
        #: Lifetime counters.  ``all_done`` is defined over these, not over
        #: the list/dict sizes, so streaming consumers may evict finished
        #: jobs (:meth:`drain_finished`) without confusing the run loop —
        #: the flat-memory property million-job replays depend on.
        self._accepted_count = 0
        self._finished_count = 0
        self._failed_count = 0

        # Malleability management (optional).  Imported here to keep the
        # scheduler importable without the malleability layer.
        from repro.malleability.manager import (
            JobManagementApproach,
            MalleabilityManager,
        )

        self.manager: Optional[MalleabilityManager] = None
        self.approach: Optional[JobManagementApproach] = None
        if self.config.malleability_policy is not None:
            policy = build_policy("malleability", self.config.malleability_policy)
            self.manager = MalleabilityManager(
                env,
                self,
                policy,
                threshold=self.config.grow_threshold,
                offer_mode=self.config.grow_offer_mode,
            )
            self.approach = build_policy("approach", self.config.approach)

        # Wire the three policy axes through the one event mechanism, in a
        # fixed order: placement sees events first, then the malleability
        # policy, then the approach whose trigger round consumes them.
        self.hooks.subscribe(self.placement_policy)
        if self.manager is not None:
            self.hooks.subscribe(self.manager.policy)
            self.hooks.subscribe(self.approach)
        else:
            self.hooks.subscribe(_QueueScanHooks())

        self.kis.on_poll(self._on_kis_poll)
        self._in_trigger = False

    # -- event emission ---------------------------------------------------------

    def emit(self, event) -> None:
        """Deliver *event* to every subscribed hook (see :attr:`hooks`)."""
        self.hooks.emit(event)

    # -- submission -------------------------------------------------------------

    def submit(self, job: Job) -> JobRunner:
        """Accept *job* for scheduling; returns the runner created for it."""
        if job.job_id in self._runners:
            raise ValueError(f"job {job.name!r} was already submitted")
        job.submit_time = self.env.now
        job.state = JobState.QUEUED
        runner = self.runners.create_runner(job)
        self._runners[job.job_id] = runner
        self._accepted_count += 1
        self.queue.enqueue(job, self.env.now)
        # A submission is a job-management trigger (the approach reacts).
        self.emit(JobSubmitted(self.env.now, job))
        return runner

    # -- views used by the malleability manager ------------------------------------

    def cluster_names(self) -> List[str]:
        """Names of the clusters the scheduler can place jobs on."""
        return self.multicluster.cluster_names

    def effective_idle_processors(self) -> Dict[str, int]:
        """Idle processors per cluster with pending claims subtracted.

        Served from the incrementally maintained struct-of-arrays view —
        equal, entry for entry, to
        ``ledger.effective_idle(kis.idle_processors(fresh=True))``.  The
        returned dict is shared and read-only; copy before mutating.
        """
        return self._state.effective_view()

    def running_malleable_runners(self, cluster_name: str) -> List[MalleableRunner]:
        """Running malleable runners placed on *cluster_name*."""
        runners = self._running_malleable.get(cluster_name)
        if not runners:
            return []
        return [runner for runner in runners if runner.is_running]

    def running_malleable_index(self) -> Dict[str, List[MalleableRunner]]:
        """The per-cluster index of started malleable runners (read-only).

        Entries may contain runners that are no longer ``is_running``; use
        :meth:`running_malleable_runners` for the filtered view.  The
        malleability manager consults this index to skip clusters with no
        malleable runners at all without a per-cluster call.
        """
        return self._running_malleable

    def running_jobs(self) -> List[Job]:
        """Jobs currently executing."""
        return list(self._running.values())

    def running_runners(self, cluster_name: Optional[str] = None) -> List[JobRunner]:
        """Runners of the currently executing jobs, in start order.

        With *cluster_name*, only the runners executing on that cluster —
        the view the fault injector draws failure victims from.
        """
        runners = [self._runners[job.job_id] for job in self._running.values()]
        if cluster_name is None:
            return runners
        return [
            runner
            for runner in runners
            if runner.cluster_name == cluster_name and runner.is_running
        ]

    def queue_head(self) -> Optional[Job]:
        """The job at the head of the placement queue (``None`` when empty)."""
        head = self.queue.head
        return head.job if head is not None else None

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting for placement."""
        return len(self.queue)

    # -- job management triggers -----------------------------------------------------

    def trigger(self) -> None:
        """Run one round of job management (placement + malleability).

        Re-entrant calls (e.g. a placement starting a job, which releases a
        claim, which retriggers the scheduler) collapse into the outermost
        round.
        """
        if self._in_trigger:
            return
        self._in_trigger = True
        try:
            if self.approach is not None and self.manager is not None:
                self.approach.on_trigger(self, self.manager)
            else:
                self.scan_queue()
        finally:
            self._in_trigger = False

    def _on_kis_poll(self, snapshot: KisSnapshot) -> None:
        self.emit(KisUpdated(self.env.now, snapshot))

    # -- placement -----------------------------------------------------------------

    def scan_queue(self) -> int:
        """Scan the placement queue head to tail; place every job that fits.

        Returns the number of jobs for which placement was initiated.
        """
        if not self.queue:
            return 0
        placed = 0
        for entry in list(self.queue):
            job = entry.job
            if job.state is not JobState.QUEUED:
                continue
            if self._try_place(job):
                placed += 1
        return placed

    def _try_place(self, job: Job) -> bool:
        """Attempt one placement of *job*; returns ``True`` if claiming started."""
        idle_view = self.effective_idle_processors()
        decision = self.placement_policy.place(job, idle_view, self.multicluster)
        if not decision.success:
            if decision.deferred:
                # A deliberate policy hold (e.g. a protected backfilling
                # reservation): the job stays queued, penalty-free.
                return False
            abandoned = self.queue.record_failure(job, decision.reason)
            if abandoned:
                self._abandon(job, decision.reason)
            return False

        # The evaluated workloads use single-component jobs; co-allocated
        # placements are accepted by the policies but executed one component
        # at a time by the rigid runner only.
        if len(decision.placements) != 1:
            abandoned = self.queue.record_failure(
                job, "co-allocated execution is not supported by this runner"
            )
            if abandoned:
                self._abandon(job, "co-allocation not supported")
            return False

        (cluster_name, processors) = next(iter(decision.placements.values()))
        claim = self.ledger.reserve(cluster_name, processors, owner=job.name)
        job.state = JobState.PLACING
        self.queue.remove(job)
        runner = self._runners[job.job_id]
        outcome = runner.start(cluster_name, processors, claim=claim, ledger=self.ledger)
        # The runner triggers *outcome* no sooner than a NORMAL event from
        # now, and nothing else registers on it, so the handler may register
        # right away.
        outcome.callbacks.append(partial(self._placement_outcome, job))
        self.emit(JobPlaced(self.env.now, job, cluster_name, processors))
        return True

    def _placement_outcome(self, job: Job, outcome) -> None:
        if outcome.value:
            return
        # Claiming failed (processors disappeared between decision and claim):
        # the job goes back to the tail of the placement queue.
        job.state = JobState.QUEUED
        job.clear_placement()
        if job not in self.queue:
            self.queue.enqueue(job, self.env.now)
        abandoned = self.queue.record_failure(job, "claim failed")
        if abandoned:
            self._abandon(job, "claim failed too many times")

    def _abandon(self, job: Job, reason: str) -> None:
        job.state = JobState.FAILED
        job.failure_reason = reason
        self.failed.append(job)
        self._failed_count += 1

    # -- runner callbacks (SchedulerCallbacks protocol) ---------------------------------

    def job_started(self, job: Job) -> None:
        """A runner reports that *job*'s application is now executing."""
        self._running[job.job_id] = job
        runner = self._runners[job.job_id]
        if isinstance(runner, MalleableRunner):
            self._running_malleable.setdefault(runner.cluster_name, []).append(runner)
        self.emit(JobStarted(self.env.now, job))

    def _forget_running(self, job: Job) -> None:
        """Drop *job* from the running views (both the map and the index)."""
        if self._running.pop(job.job_id, None) is None:
            return
        runner = self._runners.get(job.job_id)
        if isinstance(runner, MalleableRunner):
            runners = self._running_malleable.get(runner.cluster_name)
            if runners is not None:
                try:
                    runners.remove(runner)
                except ValueError:  # pragma: no cover - defensive
                    pass

    def job_finished(self, job: Job, record: ExecutionRecord) -> None:
        """A runner reports that *job* finished; its processors are free again."""
        self._forget_running(job)
        self.finished.append(job)
        self.records[job.job_id] = record
        self._finished_count += 1
        # Processors became available: a job-management trigger (via hooks).
        self.emit(JobEnded(self.env.now, job, record=record))

    def job_failed(self, job: Job, reason: str) -> None:
        """A runner reports that it definitively gave up on *job*."""
        self._forget_running(job)
        if job not in self.failed:
            self._abandon(job, reason)
        self.emit(JobEnded(self.env.now, job, failed=True, reason=reason))

    def processors_released(self, cluster_name: str) -> None:
        """A runner released processors on *cluster_name* (shrink or voluntary)."""
        self.emit(ProcessorsFreed(self.env.now, cluster_name))

    # -- failure-aware job management (used by repro.faults) --------------------------

    def fail_job(self, job: Job, *, reason: str, resubmit: bool = True) -> bool:
        """Kill the running *job* after a node failure, optionally resubmitting it.

        The execution is aborted and every held processor released (the
        killed work is gone — rigid jobs pay the paper's price for not being
        malleable).  With ``resubmit=True`` the *same* job goes back to the
        tail of the placement queue under a fresh runner, keeping its
        original submit time so response-time metrics include the wasted
        attempt; otherwise it is abandoned for good.  Emits
        :class:`~repro.policies.hooks.JobFailed` either way (plus the usual
        :class:`JobSubmitted` / failed :class:`JobEnded`).

        Returns ``False`` when *job* is not currently executing (nothing to
        kill).
        """
        runner = self._runners.get(job.job_id)
        if runner is None or job.job_id not in self._running:
            return False
        self._forget_running(job)
        runner.kill(reason)
        if resubmit:
            job.state = JobState.QUEUED
            job.failure_reason = ""
            job.clear_placement()
            self._runners[job.job_id] = self.runners.create_runner(job)
            self.queue.enqueue(job, self.env.now)
            self.emit(JobFailed(self.env.now, job, reason=reason, resubmitted=True))
            # The resubmission is a job-management trigger like any other.
            self.emit(JobSubmitted(self.env.now, job))
        else:
            if job not in self.failed:
                self._abandon(job, reason)
            self.emit(JobFailed(self.env.now, job, reason=reason, resubmitted=False))
            self.emit(JobEnded(self.env.now, job, failed=True, reason=reason))
        return True

    # -- bookkeeping -------------------------------------------------------------------

    @property
    def all_done(self) -> bool:
        """Whether every submitted job has finished or failed.

        Counter-based (not list-length-based) so evicting finished jobs
        through :meth:`drain_finished` cannot change the answer.
        """
        return self._finished_count + self._failed_count == self._accepted_count

    @property
    def finished_count(self) -> int:
        """Lifetime number of finished jobs (eviction-proof)."""
        return self._finished_count

    @property
    def failed_count(self) -> int:
        """Lifetime number of abandoned jobs (eviction-proof)."""
        return self._failed_count

    @property
    def accepted_count(self) -> int:
        """Lifetime number of accepted submissions (eviction-proof)."""
        return self._accepted_count

    def drain_finished(self) -> List[tuple]:
        """Hand over — and forget — every finished job with its record.

        The streaming-metrics eviction hook: returns ``[(job, record), ...]``
        in completion order, then drops the jobs from :attr:`finished`,
        :attr:`records` and the runner map so a million-job replay holds
        only the in-flight working set.  :attr:`all_done` is unaffected
        (it is counter-based).  After a drain,
        :meth:`~repro.metrics.collector.ExperimentMetrics.from_run` only
        sees the jobs finished since — callers that drain are expected to
        accumulate metrics incrementally (see
        :mod:`repro.metrics.windowed`).
        """
        drained = [(job, self.records.pop(job.job_id)) for job in self.finished]
        for job, _ in drained:
            self._runners.pop(job.job_id, None)
        self.finished = []
        return drained

    def runner_for(self, job: Job) -> JobRunner:
        """The runner created for *job*."""
        return self._runners[job.job_id]

    def execution_records(self) -> List[ExecutionRecord]:
        """Execution records of all finished jobs, in completion order."""
        return [self.records[job.job_id] for job in self.finished]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<KoalaScheduler policy={self.placement_policy.name} "
            f"approach={self.config.approach if self.manager else None} "
            f"queued={len(self.queue)} running={len(self._running)} "
            f"finished={len(self.finished)}>"
        )
