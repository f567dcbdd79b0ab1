"""The malleability manager and the two job-management approaches.

The malleability manager is the scheduler-side component added by the paper
(Figure 3): it decides when to initiate grow and shrink operations and sends
the corresponding messages to the MRunners, which forward them to the
applications through DYNACO.  Two approaches to *when* are provided:

* **PRA** (Precedence to Running Applications): whenever processors become
  available, the running malleable jobs are grown first; waiting jobs are not
  considered as long as a running malleable job can still grow.  Jobs are
  never shrunk.
* **PWA** (Precedence to Waiting Applications): when the job at the head of
  the placement queue cannot be placed, running malleable jobs are shrunk —
  mandatorily — to make room for it; if even the minimum sizes of the running
  jobs cannot free enough processors, the running jobs are grown instead.

Both approaches are triggered from the scheduler's periodic poll of the KOALA
information service (so background load submitted behind KOALA's back is
taken into account) and from resource-release events.  A per-cluster
*threshold* of processors is never handed to malleable jobs, so local users
always find some capacity free.

A PWA shrink campaign is a callback chain: an URGENT relay starts the wait on
the campaign's shrinks (one at a time, in the order they were sent), and a
second one the wait on the campaign's end, which re-scans the placement
queue.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.malleability.policies import GrowDirective, MalleabilityPolicy
from repro.policies.hooks import TriggerOnSchedulingEvents
from repro.policies.registry import register
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event, when_all_processed, when_processed
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.koala.scheduler import KoalaScheduler


class MalleabilityManager:
    """Scheduler-side component that triggers grow/shrink operations.

    Parameters
    ----------
    env:
        Simulation environment.
    scheduler:
        The owning :class:`~repro.koala.scheduler.KoalaScheduler`; the manager
        uses it to enumerate running malleable runners per cluster, to read
        the effective idle-processor view and to reserve claims.
    policy:
        The malleability management policy (FPSMA, EGS, ...).
    threshold:
        Number of idle processors per cluster that growing must always leave
        for local users.
    offer_mode:
        What a grow trigger offers to the running malleable jobs of a
        cluster:

        * ``"released"`` (default, matching the observed behaviour of the
          paper's system) — only the processors that *became available* since
          the last grow trigger (job completions, shrinks, voluntary
          releases, background jobs ending) are offered; whatever the running
          jobs decline simply stays idle until a future release.  This is
          what makes the "turn" dynamics of FPSMA visible: a short job may
          finish before previously started jobs stop absorbing the releases.
        * ``"idle"`` — every trigger offers all effectively idle processors
          (minus the threshold); on a lightly loaded system every job then
          reaches its maximum almost immediately and FPSMA and EGS become
          indistinguishable.  Kept for the ablation study.
    """

    def __init__(
        self,
        env: Environment,
        scheduler: "KoalaScheduler",
        policy: MalleabilityPolicy,
        *,
        threshold: int = 0,
        offer_mode: str = "released",
    ) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if offer_mode not in ("released", "idle"):
            raise ValueError(f"unknown offer_mode {offer_mode!r}")
        self.env = env
        self.scheduler = scheduler
        self.policy = policy
        self.threshold = int(threshold)
        self.offer_mode = offer_mode
        #: Cumulative count of grow messages sent (Figure 7(f)).
        self.grow_messages = Counter(name="grow-messages")
        #: Cumulative count of shrink messages sent.
        self.shrink_messages = Counter(name="shrink-messages")
        #: Cumulative count of all malleability operations (Figure 8(f)).
        self.operations = Counter(name="malleability-operations")
        #: Whether a make-room shrink campaign is currently in flight.
        self._make_room_in_flight = False
        #: Per-cluster account of processors released since the last grow
        #: trigger (used in "released" offer mode).
        self._released_account: Dict[str, int] = {}
        for cluster in self.scheduler.multicluster:
            self._released_account[cluster.name] = 0
            cluster.add_release_listener(self._on_release)

    # -- release accounting ------------------------------------------------

    def _on_release(self, allocation) -> None:
        # Only processors released by KOALA-managed jobs are offered for
        # growth.  Processors released by local (background) jobs belong to
        # the local users: they become visible as idle — placements and the
        # grow ceiling account for them — but the malleability manager does
        # not actively hand them to malleable jobs, in the same spirit as the
        # threshold that always leaves capacity to local users.
        if allocation.kind != "grid":
            return
        name = allocation.cluster.name
        self._released_account[name] = (
            self._released_account.get(name, 0) + allocation.processors
        )

    def released_since_last_trigger(self, cluster_name: str) -> int:
        """Processors released on *cluster_name* since the last grow trigger."""
        return self._released_account.get(cluster_name, 0)

    # -- growing ------------------------------------------------------------

    def grow_value_for(self, cluster_name: str) -> int:
        """Processors that may be handed to malleable jobs on *cluster_name*.

        In ``"released"`` mode this is the release account of the cluster,
        capped by its effective idle count minus the local-user threshold; in
        ``"idle"`` mode it is the effective idle count minus the threshold.
        """
        if self.offer_mode != "idle":
            # An empty release account caps the offer at zero before the
            # idle view is even consulted — the common case on every trigger
            # between releases.
            account = self._released_account.get(cluster_name, 0)
            if account <= 0:
                return 0
        idle = self.scheduler.effective_idle_processors().get(cluster_name, 0)
        ceiling = idle - self.threshold
        if ceiling <= 0:
            return 0
        if self.offer_mode == "idle":
            return ceiling
        return min(ceiling, account)

    def grow_cluster(self, cluster_name: str) -> List[GrowDirective]:
        """Plan and execute grow operations on one cluster."""
        # Both reads are pure; the grow value, usually zero between releases,
        # is the cheaper one to rule the round out.
        grow_value = self.grow_value_for(cluster_name)
        if grow_value <= 0:
            return []
        runners = self.scheduler.running_malleable_runners(cluster_name)
        if not runners:
            return []
        directives = self.policy.plan_grow(runners, grow_value)
        # The whole account was offered in this trigger; whatever the jobs
        # declined stays idle and is not re-offered until new releases occur.
        self._released_account[cluster_name] = 0
        for directive in directives:
            self._execute_grow(cluster_name, directive)
        return directives

    def grow_all_clusters(self) -> List[GrowDirective]:
        """Plan and execute grow operations on every cluster."""
        directives: List[GrowDirective] = []
        running = self.scheduler.running_malleable_index()
        for cluster_name in self.scheduler.cluster_names():
            if not running.get(cluster_name):
                # No malleable runner ever started here (or all are gone):
                # nothing can grow, skip the per-cluster planning round.
                continue
            directives.extend(self.grow_cluster(cluster_name))
        return directives

    def _execute_grow(self, cluster_name: str, directive: GrowDirective) -> Event:
        self.grow_messages.increment(self.env.now)
        self.operations.increment(self.env.now)
        claim = self.scheduler.ledger.reserve(
            cluster_name, max(1, directive.expected), owner=f"grow:{directive.runner.job.name}"
        )
        return directive.runner.grow(
            directive.offered, claim=claim, ledger=self.scheduler.ledger
        )

    # -- shrinking (PWA) --------------------------------------------------------

    def shrink_potential(self, cluster_name: str) -> int:
        """Processors that could be reclaimed on *cluster_name* by shrinking.

        Bounded by the minimum sizes of the running malleable jobs, exactly
        the feasibility condition PWA uses before deciding to shrink.
        """
        runners = self.scheduler.running_malleable_runners(cluster_name)
        return sum(runner.shrinkable_processors for runner in runners)

    def make_room(self, cluster_name: str, needed: int) -> Optional[Event]:
        """Shrink running malleable jobs on *cluster_name* to free *needed* processors.

        Returns an event that succeeds (with the total number of processors
        released) once all shrink operations have completed, or ``None`` when
        the policy cannot find anything to shrink.  Shrinks issued here are
        mandatory.
        """
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
        self.env.relay(partial(self._await_releases, release_events, done), URGENT)
        return done

    def _await_releases(self, release_events: List[Event], done: Event, _relay: Event) -> None:
        when_all_processed(release_events, partial(self._released, done))

    def _released(self, done: Event, release_events: Sequence[Event]) -> None:
        total = sum(int(event.value or 0) for event in release_events)
        if not done.triggered:
            done.succeed(total)

    # -- PWA campaign ------------------------------------------------------------

    def make_room_for_job(self, job) -> bool:
        """Try to free enough processors for *job* somewhere (PWA shrink step).

        Picks the cluster where the fewest processors are missing (ties:
        most shrink potential) and launches a mandatory shrink campaign
        there.  Returns ``True`` if a campaign was started.  The placement
        queue is re-scanned once the campaign's processors have actually been
        released.
        """
        if self._make_room_in_flight:
            return False
        size = job.total_processors
        idle_view = self.scheduler.effective_idle_processors()
        best: Optional[tuple] = None
        for cluster_name in self.scheduler.cluster_names():
            idle = idle_view.get(cluster_name, 0)
            needed = size - idle
            if needed <= 0:
                # The job actually fits; placement will handle it.
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
        self.env.relay(partial(self._await_campaign, campaign), URGENT)
        return True

    def _await_campaign(self, campaign: Event, _relay: Event) -> None:
        when_processed(campaign, self._campaign_end)

    def _campaign_end(self, _campaign: Event) -> None:
        self._make_room_in_flight = False
        # Processors have been released: let the scheduler place waiting jobs.
        self.scheduler.scan_queue()

    # -- statistics ----------------------------------------------------------------

    @property
    def total_grow_messages(self) -> int:
        """Total number of grow messages sent so far."""
        return int(self.grow_messages.total)

    @property
    def total_shrink_messages(self) -> int:
        """Total number of shrink messages sent so far."""
        return int(self.shrink_messages.total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MalleabilityManager policy={self.policy.name} "
            f"grow={self.total_grow_messages} shrink={self.total_shrink_messages}>"
        )


class JobManagementApproach(TriggerOnSchedulingEvents, ABC):
    """Decides when the malleability manager acts relative to placement.

    Approaches are :class:`~repro.policies.hooks.SchedulerHooks` subscribers:
    the scheduler emits typed events, and the inherited
    :class:`~repro.policies.hooks.TriggerOnSchedulingEvents` wiring maps the
    paper's job-management trigger points — a submission, a completion, a
    processor release and an information-service poll — onto one
    re-entrancy-collapsed :meth:`on_trigger` round.  Subclasses usually only
    override :meth:`on_trigger`; overriding individual event hooks instead
    allows approaches with entirely different trigger conditions.
    """

    #: Symbolic name ("PRA" or "PWA").
    name: str = "abstract"

    @abstractmethod
    def on_trigger(self, scheduler: "KoalaScheduler", manager: MalleabilityManager) -> None:
        """Invoked by the scheduler at every job-management trigger point."""


@register("approach", "PRA", aliases=("PRECEDENCE-TO-RUNNING",))
class PrecedenceToRunningApplications(JobManagementApproach):
    """PRA: grow running malleable jobs first; never shrink.

    "Whenever processors become available ... first the running applications
    are considered.  If there are malleable jobs running, one of the
    malleability management policies is initiated in order to grow them; any
    waiting malleable jobs are not considered as long as at least one running
    malleable job can still be grown."
    """

    name = "PRA"

    def on_trigger(self, scheduler: "KoalaScheduler", manager: MalleabilityManager) -> None:
        manager.grow_all_clusters()
        # Whatever the running jobs did not take (threshold, declined offers)
        # is available for placements.
        scheduler.scan_queue()


@register("approach", "PWA", aliases=("PRECEDENCE-TO-WAITING",))
class PrecedenceToWaitingApplications(JobManagementApproach):
    """PWA: shrink running jobs to make room for waiting ones.

    "When the next job j in the queue cannot be placed, the scheduler applies
    one of the malleability management policies for shrinking running
    malleable jobs in order to obtain additional processors.  Those shrink
    operations are mandatory.  If it is however impossible to get enough
    available processors ... then the running malleable jobs are considered
    for growing."
    """

    name = "PWA"

    def on_trigger(self, scheduler: "KoalaScheduler", manager: MalleabilityManager) -> None:
        scheduler.scan_queue()
        head = scheduler.queue_head()
        if head is None:
            # Nothing is waiting: behave like PRA and grow the running jobs.
            manager.grow_all_clusters()
            return
        if manager.make_room_for_job(head):
            return
        # Impossible to free enough processors for the waiting job: grow.
        manager.grow_all_clusters()
