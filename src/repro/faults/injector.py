"""The fault injector: replaying availability events against a live system.

The :class:`FaultInjector` is the runtime half of the fault subsystem.  It
pulls the time-ordered :class:`~repro.faults.models.FaultEvent` stream of a
fault model and applies each event to the simulated multicluster:

* **capacity** — failed processors leave the cluster pool
  (:meth:`~repro.cluster.cluster.Cluster.mark_failed`) and repaired ones
  return, so ``idle_processors`` and every placement/grow decision built on
  it stay consistent with the availability model;
* **victims** — a hard failure strikes nodes uniformly at random (a
  multivariate-hypergeometric split over the idle pool, the local background
  jobs and the running KOALA jobs, drawn from a dedicated random-stream
  lane).  Local jobs are rigid and die with their node.  KOALA jobs are where
  the paper's story plays out: a **rigid** job is killed and resubmitted
  under the configurable retry policy, while a **malleable** job whose
  minimum size still fits *shrinks through* the failure and keeps computing;
* **events** — every action flows through the scheduler's
  :class:`~repro.policies.hooks.HookDispatcher` as typed events
  (``node_failed``, ``node_repaired``, ``job_failed``, ``job_rescued``), so
  placement and malleability policies can react like they do to any other
  scheduling event.

Jobs whose GRAM claim is still in flight hold no named allocation yet and
are not drawn as victims (their claim simply fails if the processors are
gone by the time GRAM reaches them); a whole-cluster outage therefore spares
in-flight stubs for the few simulated seconds claiming takes.

Graceful events (*drains*) kill nothing: the requested processors leave the
pool immediately as far as they are idle, and the remainder converts to
failed capacity as allocations release, modelling scheduled maintenance.

The injector is a callback chain, not a process: an URGENT relay where the
process's ``Initialize`` stood, then one timeout per fault instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.faults.models import (
    KIND_REPAIR,
    FaultEvent,
    FaultRef,
)
from repro.koala.mrunner import MalleableRunner
from repro.policies.hooks import JobRescued, NodeFailed, NodeRepaired
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.allocation import Allocation
    from repro.cluster.cluster import Cluster
    from repro.koala.runners import JobRunner
    from repro.koala.scheduler import KoalaScheduler


@dataclass
class FaultStats:
    """Counters of everything the injector did (the resilience raw data)."""

    #: Availability events applied (after capping against cluster state).
    node_failures: int = 0
    node_repairs: int = 0
    #: Processors taken down / brought back over the whole run.
    processors_failed: int = 0
    processors_repaired: int = 0
    #: KOALA jobs killed by failures (kills of the same job count each time).
    jobs_killed: int = 0
    #: Killed jobs put back into the placement queue.
    resubmissions: int = 0
    #: Killed jobs abandoned because their retry budget ran out.
    jobs_lost: int = 0
    #: Malleable jobs that shrank through a failure instead of dying.
    shrink_rescues: int = 0
    #: Processors those rescues gave up.
    rescued_processors: int = 0
    #: Local (background) jobs killed by failures.
    local_jobs_killed: int = 0
    #: Processor-seconds of work destroyed by job kills.
    wasted_processor_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (native scalars only)."""
        return {
            "node_failures": int(self.node_failures),
            "node_repairs": int(self.node_repairs),
            "processors_failed": int(self.processors_failed),
            "processors_repaired": int(self.processors_repaired),
            "jobs_killed": int(self.jobs_killed),
            "resubmissions": int(self.resubmissions),
            "jobs_lost": int(self.jobs_lost),
            "shrink_rescues": int(self.shrink_rescues),
            "rescued_processors": int(self.rescued_processors),
            "local_jobs_killed": int(self.local_jobs_killed),
            "wasted_processor_seconds": float(self.wasted_processor_seconds),
        }


class FaultInjector:
    """Drives a fault model against a scheduler and its multicluster.

    Parameters
    ----------
    env, scheduler:
        Simulation environment and the (already constructed) scheduler whose
        system the faults strike.
    reference:
        A ``fault:`` reference string or parsed :class:`FaultRef` naming the
        model and its parameters (including the injector-level ``retries``
        budget).
    streams:
        The experiment's named random streams.  The model draws from the
        ``"faults"`` lane and victim selection from ``"faults:victims"``, so
        fault injection never perturbs workload, background or application
        randomness — a run with faults disabled is bit-for-bit the run it
        always was.
    """

    def __init__(
        self,
        env: Environment,
        scheduler: "KoalaScheduler",
        reference: Union[str, FaultRef],
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.env = env
        self.scheduler = scheduler
        self.multicluster = scheduler.multicluster
        self.ref = (
            reference if isinstance(reference, FaultRef) else FaultRef.parse(reference)
        )
        if streams is None:
            streams = RandomStreams(seed=0)
        self._victim_rng = streams["faults:victims"]
        layout = {
            cluster.name: cluster.total_processors for cluster in self.multicluster
        }
        self._events: Iterator[FaultEvent] = self.ref.build(streams["faults"], layout)
        #: Maximum resubmissions per killed job (``None`` = unlimited).
        self.retries = self.ref.retries()
        self.stats = FaultStats()
        self._resubmission_counts: Dict[int, int] = {}
        self._pending_drain: Dict[str, int] = {}
        for cluster in self.multicluster:
            self._pending_drain[cluster.name] = 0
            cluster.add_release_listener(self._on_release)
        #: The fault event whose timeout is pending, if any.
        self._waiting: Optional[FaultEvent] = None
        self._start()

    # -- event chain ----------------------------------------------------------

    def _start(self) -> None:
        """Start the chain: an URGENT relay to its first link."""
        self.env.relay(self._inject_link, URGENT)

    def _inject_link(self, _event: Event) -> None:
        """Apply the waiting fault event, then each due one; arm the next's timeout."""
        if self._waiting is not None:
            event, self._waiting = self._waiting, None
            self._apply(event)
        for event in self._events:
            delay = event.time - self.env.now
            if delay > 0:
                self._waiting = event
                self.env.timeout(delay).callbacks.append(self._inject_link)
                return
            if delay < 0:
                # Applying a past event at the current time would silently
                # distort the availability timeline; a model yielding
                # out-of-order events is a bug that must surface loudly.
                raise ValueError(
                    f"fault model {self.ref.canonical()!r} produced an "
                    f"out-of-order event at t={event.time:g} "
                    f"(simulation already at t={self.env.now:g})"
                )
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        if event.cluster not in self.multicluster:
            raise ValueError(
                f"fault event names unknown cluster {event.cluster!r}"
            )
        cluster = self.multicluster.cluster(event.cluster)
        if event.kind == KIND_REPAIR:
            self._apply_repair(cluster, event.processors)
        elif event.graceful:
            self._apply_drain(cluster, event.processors)
        else:
            self._apply_failure(cluster, event.processors)

    # -- repairs ---------------------------------------------------------------

    def _apply_repair(self, cluster: "Cluster", count: int) -> None:
        name = cluster.name
        pending = self._pending_drain.get(name, 0)
        cancelled = min(pending, count)
        if cancelled:
            # Nodes that were draining but never actually emptied: the repair
            # simply cancels the pending drain, no capacity changes hands.
            self._pending_drain[name] = pending - cancelled
        restore = min(count - cancelled, cluster.failed_processors)
        if restore <= 0:
            return
        cluster.mark_repaired(restore)
        self.stats.node_repairs += 1
        self.stats.processors_repaired += restore
        self.scheduler.emit(NodeRepaired(self.env.now, name, restore))

    # -- drains (graceful) -------------------------------------------------------

    def _apply_drain(self, cluster: "Cluster", count: int) -> None:
        name = cluster.name
        pending = self._pending_drain.get(name, 0)
        count = min(count, cluster.available_processors - pending)
        if count <= 0:
            return
        immediate = min(count, cluster.idle_processors)
        if immediate > 0:
            cluster.mark_failed(immediate)
            self.stats.processors_failed += immediate
        remainder = count - immediate
        if remainder > 0:
            self._pending_drain[name] = pending + remainder
        self.stats.node_failures += 1
        self.scheduler.emit(NodeFailed(self.env.now, name, count, graceful=True))

    def _on_release(self, allocation: "Allocation") -> None:
        # Convert pending drains into failed capacity as processors fall idle.
        cluster = allocation.cluster
        pending = self._pending_drain.get(cluster.name, 0)
        if not pending:
            return
        take = min(pending, cluster.idle_processors)
        if take <= 0:
            return
        cluster.mark_failed(take)
        self._pending_drain[cluster.name] = pending - take
        self.stats.processors_failed += take

    # -- hard failures -----------------------------------------------------------

    def _apply_failure(self, cluster: "Cluster", count: int) -> None:
        count = min(count, cluster.available_processors)
        if count <= 0:
            return
        name = cluster.name
        # The strike pool: idle nodes, local (background) jobs and running
        # KOALA jobs, in a fixed deterministic order.  Processors held by
        # in-flight GRAM claims are not in the pool (see module docstring).
        local_allocations = [
            allocation
            for allocation in cluster.active_allocations
            if allocation.kind == "local"
        ]
        runners = self.scheduler.running_runners(name)
        buckets: List[Tuple[str, object, int]] = [("idle", None, cluster.idle_processors)]
        buckets.extend(
            ("local", allocation, allocation.processors)
            for allocation in local_allocations
        )
        buckets.extend(
            ("runner", runner, self._runner_weight(runner)) for runner in runners
        )
        pool = sum(weight for _, _, weight in buckets)
        struck = min(count, pool)
        if struck <= 0:
            return

        # Uniform strike over the pool: a sequential multivariate-
        # hypergeometric split assigns each bucket its share of the dead
        # nodes, without replacement.
        hits: List[int] = []
        remaining_pool = pool
        remaining_struck = struck
        for _, _, weight in buckets:
            if remaining_struck <= 0 or weight <= 0:
                hits.append(0)
                remaining_pool -= weight
                continue
            hit = int(
                self._victim_rng.hypergeometric(
                    weight, remaining_pool - weight, remaining_struck
                )
            )
            hits.append(hit)
            remaining_pool -= weight
            remaining_struck -= hit

        for (kind, target, _), hit in zip(buckets, hits):
            if hit <= 0:
                continue
            if kind == "idle":
                cluster.mark_failed(hit)
            elif kind == "local":
                self._strike_local(cluster, target, hit)
            else:
                self._strike_runner(cluster, target, hit)
        self.stats.node_failures += 1
        self.stats.processors_failed += struck
        self.scheduler.emit(NodeFailed(self.env.now, name, struck))

    @staticmethod
    def _runner_weight(runner: "JobRunner") -> int:
        """Processors of *runner* exposed to failures (its held GRAM jobs)."""
        return sum(gram_job.processors for gram_job in runner.gram_jobs)

    def _strike_local(self, cluster: "Cluster", allocation: "Allocation", hit: int) -> None:
        # Mark first, release second: the dead processors must never look
        # idle, not even within the instant the victim is dismantled.
        cluster.mark_failed(hit)
        if self.multicluster.local_rm(cluster.name).fail_allocation(allocation):
            self.stats.local_jobs_killed += 1

    def _strike_runner(self, cluster: "Cluster", runner: "JobRunner", hit: int) -> None:
        job = runner.job
        survivable = (
            isinstance(runner, MalleableRunner)
            and runner.application is not None
            and not runner.application.is_finished
            and hit < len(runner.gram_jobs)
            and runner.application.allocation - hit >= job.minimum_processors
            # The application's structural size constraint has the last word:
            # e.g. FT at 8 processors with a minimum of 5 has no acceptable
            # smaller size, so the mandatory shrink would be refused and the
            # job would keep computing on dead processors.  Preview it.
            and runner.preview_shrink(hit) >= hit
        )
        cluster.mark_failed(hit)
        if survivable:
            runner.survive_failure(hit)
            self.stats.shrink_rescues += 1
            self.stats.rescued_processors += hit
            self.scheduler.emit(JobRescued(self.env.now, job, cluster.name, hit))
            return
        application = runner.application
        resubmit = self._retry_allowed(job)
        reason = f"node failure on {cluster.name}"
        if not self.scheduler.fail_job(job, reason=reason, resubmit=resubmit):
            return  # pragma: no cover - the job finished in this very instant
        self.stats.jobs_killed += 1
        if application is not None and application.record.started:
            record = application.record
            elapsed = (record.finish_time or self.env.now) - (record.start_time or 0.0)
            if elapsed > 0:
                self.stats.wasted_processor_seconds += (
                    record.average_allocation * elapsed
                )
        if resubmit:
            self._resubmission_counts[job.job_id] = (
                self._resubmission_counts.get(job.job_id, 0) + 1
            )
            self.stats.resubmissions += 1
        else:
            self.stats.jobs_lost += 1

    def _retry_allowed(self, job) -> bool:
        if self.retries is None:
            return True
        return self._resubmission_counts.get(job.job_id, 0) < self.retries

    # -- reporting ----------------------------------------------------------------

    @property
    def pending_drains(self) -> Dict[str, int]:
        """Processors per cluster still waiting to drain (for inspection)."""
        return {
            name: pending
            for name, pending in self._pending_drain.items()
            if pending
        }

    def resilience_summary(self) -> Dict[str, Any]:
        """The run's resilience counters as a JSON-compatible mapping."""
        return self.stats.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FaultInjector {self.ref.canonical()!r} "
            f"failures={self.stats.node_failures} kills={self.stats.jobs_killed} "
            f"rescues={self.stats.shrink_rescues}>"
        )
