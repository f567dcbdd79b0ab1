"""KOALA placement policies.

A placement policy decides, for each component of a job, which cluster it
should run in, based on the information-service view of idle processors (and
for some policies, file locations and network estimates).  The policies
reproduced here are the ones listed in Section IV-A of the paper:

* **Worst-Fit (WF)** — place each component in the cluster with the largest
  number of idle processors; automatic load balancing, used for all the
  paper's malleability experiments;
* **Close-to-Files (CF)** — favour clusters that already hold the component's
  input files, then clusters to which transferring them is fastest;
* **Cluster Minimization (CM)** — minimise the number of clusters a
  co-allocated job is spread over;
* **Flexible Cluster Minimization (FCM)** — additionally split the job into
  components sized according to the numbers of idle processors to reduce the
  queue time.

Policies never mutate cluster state; they only return a
:class:`PlacementDecision` that the scheduler then tries to claim.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.multicluster import Multicluster
from repro.koala.job import Job, JobComponent
from repro.policies.registry import register


@dataclass
class PlacementDecision:
    """Outcome of one placement attempt.

    ``placements`` maps component index to the chosen cluster name and the
    number of processors to claim for it there.  ``success`` is ``False``
    when the policy could not find room for every component, in which case
    ``reason`` explains why (used in failure diagnostics and tests).

    ``deferred`` marks a *deliberate hold* rather than a capacity failure:
    the job fits but the policy chose not to start it yet (e.g. EASY
    backfilling protecting a head reservation).  Deferred outcomes leave the
    job queued without counting against its placement-retry budget.
    """

    job: Job
    placements: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    success: bool = True
    reason: str = ""
    deferred: bool = False

    @property
    def clusters_used(self) -> List[str]:
        """The distinct clusters this decision spans."""
        return sorted({cluster for cluster, _ in self.placements.values()})

    def processors_on(self, cluster_name: str) -> int:
        """Total processors this decision claims on *cluster_name*."""
        return sum(
            processors
            for cluster, processors in self.placements.values()
            if cluster == cluster_name
        )

    @classmethod
    def failure(cls, job: Job, reason: str) -> "PlacementDecision":
        """A failed placement attempt."""
        return cls(job=job, placements={}, success=False, reason=reason)

    @classmethod
    def deferral(cls, job: Job, reason: str) -> "PlacementDecision":
        """A deliberate hold: the policy keeps *job* queued, penalty-free."""
        return cls(job=job, placements={}, success=False, reason=reason, deferred=True)


class PlacementPolicy(ABC):
    """Base class of placement policies."""

    #: Symbolic name used in configuration files and experiment descriptions.
    name: str = "abstract"

    @abstractmethod
    def place(
        self,
        job: Job,
        idle_processors: Dict[str, int],
        multicluster: Multicluster,
    ) -> PlacementDecision:
        """Try to place *job* given the per-cluster *idle_processors* view."""

    # -- helpers shared by concrete policies ---------------------------------

    @staticmethod
    def _component_requests(job: Job) -> List[Tuple[int, JobComponent]]:
        """Component indices and components, largest first (helps packing)."""
        indexed = list(enumerate(job.components))
        indexed.sort(key=lambda pair: pair[1].processors, reverse=True)
        return indexed


@register("placement", "WF", aliases=("WORST-FIT",))
class WorstFit(PlacementPolicy):
    """Place each component in the cluster with the most idle processors.

    The paper: "The advantage of WF is its automatic load-balancing
    behaviour, the disadvantage is that large (components of) jobs have less
    chance of successful placement because WF tends to reduce the number of
    idle processors per cluster."
    """

    name = "WF"

    def place(
        self,
        job: Job,
        idle_processors: Dict[str, int],
        multicluster: Multicluster,
    ) -> PlacementDecision:
        components = job.components
        if len(components) == 1:
            # Single-component jobs (all of the paper's workloads) on the
            # live effective-idle view: one pass over the struct-of-arrays
            # state, with the same (-idle, name) tie-break.
            state = getattr(multicluster, "state", None)
            if state is not None and idle_processors is state.effective_view():
                component = components[0]
                chosen = state.select_worst_fit(component.processors)
                if chosen is None:
                    return PlacementDecision.failure(
                        job,
                        f"no cluster has {component.processors} idle processors "
                        f"for component 0",
                    )
                decision = PlacementDecision(job=job)
                decision.placements[0] = (chosen, component.processors)
                return decision
        remaining = dict(idle_processors)
        decision = PlacementDecision(job=job)
        for index, component in self._component_requests(job):
            candidates = [
                (idle, name) for name, idle in remaining.items() if idle >= component.processors
            ]
            if not candidates:
                return PlacementDecision.failure(
                    job,
                    f"no cluster has {component.processors} idle processors "
                    f"for component {index}",
                )
            candidates.sort(key=lambda pair: (-pair[0], pair[1]))
            _, chosen = candidates[0]
            decision.placements[index] = (chosen, component.processors)
            remaining[chosen] -= component.processors
        return decision


@register("placement", "CF", aliases=("CLOSE-TO-FILES",))
class CloseToFiles(PlacementPolicy):
    """Favour clusters holding the component's input files.

    Clusters already storing the input files are preferred; among the others,
    the cluster with the smallest estimated transfer time wins.  Ties are
    broken by idle processors (worst-fit style) to retain load balancing.
    """

    name = "CF"

    def __init__(self, file_size_mb: float = 500.0) -> None:
        if file_size_mb < 0:
            raise ValueError("file_size_mb must be non-negative")
        self.file_size_mb = float(file_size_mb)

    def place(
        self,
        job: Job,
        idle_processors: Dict[str, int],
        multicluster: Multicluster,
    ) -> PlacementDecision:
        remaining = dict(idle_processors)
        decision = PlacementDecision(job=job)
        for index, component in self._component_requests(job):
            feasible = [
                name for name, idle in remaining.items() if idle >= component.processors
            ]
            if not feasible:
                return PlacementDecision.failure(
                    job,
                    f"no cluster has {component.processors} idle processors "
                    f"for component {index}",
                )
            chosen = self._rank(component, feasible, remaining, multicluster)[0]
            decision.placements[index] = (chosen, component.processors)
            remaining[chosen] -= component.processors
        return decision

    def _rank(
        self,
        component: JobComponent,
        feasible: Sequence[str],
        remaining: Dict[str, int],
        multicluster: Multicluster,
    ) -> List[str]:
        def transfer_cost(cluster_name: str) -> float:
            total = 0.0
            for file_name in component.input_files:
                sites = multicluster.replica_sites(file_name)
                if not sites or cluster_name in sites:
                    continue
                best = multicluster.network.best_source(
                    cluster_name, sites, self.file_size_mb
                )
                if best is not None:
                    total += best[1]
            return total

        return sorted(
            feasible,
            key=lambda name: (transfer_cost(name), -remaining[name], name),
        )


@register("placement", "CM", aliases=("CLUSTER-MINIMIZATION",))
class ClusterMinimization(PlacementPolicy):
    """Minimise the number of clusters a co-allocated job is spread over."""

    name = "CM"

    def place(
        self,
        job: Job,
        idle_processors: Dict[str, int],
        multicluster: Multicluster,
    ) -> PlacementDecision:
        # Greedily assign components (largest first) to the cluster that is
        # already used by this job and still fits them; only open a new
        # cluster (the one with the most idle processors) when unavoidable.
        remaining = dict(idle_processors)
        used: List[str] = []
        decision = PlacementDecision(job=job)
        for index, component in self._component_requests(job):
            target: Optional[str] = None
            for name in used:
                if remaining[name] >= component.processors:
                    target = name
                    break
            if target is None:
                candidates = [
                    (idle, name)
                    for name, idle in remaining.items()
                    if idle >= component.processors and name not in used
                ]
                if not candidates:
                    return PlacementDecision.failure(
                        job,
                        f"no cluster can host component {index} "
                        f"({component.processors} processors)",
                    )
                candidates.sort(key=lambda pair: (-pair[0], pair[1]))
                target = candidates[0][1]
                used.append(target)
            decision.placements[index] = (target, component.processors)
            remaining[target] -= component.processors
        return decision


@register("placement", "FCM", aliases=("FLEXIBLE-CLUSTER-MINIMIZATION",))
class FlexibleClusterMinimization(PlacementPolicy):
    """Cluster minimisation that may re-split the job to fit idle processors.

    The flexible variant treats the job's total processor request as a budget
    that can be split into differently sized components according to the idle
    processors of the clusters, which decreases the queue time of large jobs
    at the price of more inter-cluster communication.
    """

    name = "FCM"

    def __init__(self, min_component_size: int = 1) -> None:
        if min_component_size < 1:
            raise ValueError("min_component_size must be >= 1")
        self.min_component_size = int(min_component_size)

    def place(
        self,
        job: Job,
        idle_processors: Dict[str, int],
        multicluster: Multicluster,
    ) -> PlacementDecision:
        total = job.total_processors
        # Fill clusters in decreasing order of idle processors.
        candidates = sorted(idle_processors.items(), key=lambda pair: (-pair[1], pair[0]))
        decision = PlacementDecision(job=job)
        outstanding = total
        component_index = 0
        for name, idle in candidates:
            if outstanding <= 0:
                break
            take = min(idle, outstanding)
            if take < self.min_component_size:
                continue
            decision.placements[component_index] = (name, take)
            component_index += 1
            outstanding -= take
        if outstanding > 0:
            return PlacementDecision.failure(
                job,
                f"only {total - outstanding} of {total} processors available system-wide",
            )
        return decision
