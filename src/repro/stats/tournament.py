"""Cross-grid policy tournaments: ranked tables and Pareto frontiers.

A *tournament* pits every variant of a scenario (the entrants — typically a
policy × trace × load_factor × fault_model grid) against each other across a
common seed grid.  Each entrant's metrics are aggregated by the replication
layer into means, standard deviations and bootstrap confidence intervals;
the entrants are then ranked on one metric and the Pareto frontier over

    (mean_response_time, wasted_processor_seconds, jobs_lost)

— responsiveness versus wasted work versus resilience, all minimised — is
computed over the per-entrant means.  The report is plain text in the style
of :mod:`repro.metrics.reports`, and byte-identical across serial, parallel,
warm-cache and daemon-backed executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isnan
from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.scenarios import ScenarioSpec, get_scenario
from repro.experiments.setup import ExperimentResult
from repro.metrics.reports import format_table
from repro.stats.aggregate import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    MetricStats,
)
from repro.stats.replication import DEFAULT_SEEDS, ReplicaSet, group_replicas, replicate

#: The Pareto objectives, all minimised: responsiveness, wasted work, losses.
PARETO_METRICS: Tuple[str, ...] = (
    "mean_response_time",
    "wasted_processor_seconds",
    "jobs_lost",
)

#: Default ranking metric.
DEFAULT_RANK_METRIC = "mean_response_time"

#: Metrics aggregated for every entrant (the report's columns).
REPORT_METRICS: Tuple[str, ...] = (
    "mean_response_time",
    "mean_execution_time",
    "wasted_processor_seconds",
    "jobs_lost",
)


@dataclass(frozen=True)
class TournamentEntry:
    """One entrant: a variant's label plus its aggregated statistics."""

    label: str
    seeds: Tuple[int, ...]
    stats: Mapping[str, MetricStats]
    truncated: bool

    def objective(self, metric: str) -> float:
        """The entrant's mean of *metric* for ordering (``nan`` -> ``inf``).

        An entrant with no finished jobs has ``nan`` means; mapping those to
        infinity keeps ranking and domination total orders (a run that never
        finished anything cannot beat one that did).
        """
        mean = self.stats[metric].mean
        return inf if isnan(mean) else mean


@dataclass(frozen=True)
class TournamentResult:
    """Ranked entrants plus the Pareto frontier of one tournament."""

    title: str
    rank_metric: str
    confidence: float
    entries: Tuple[TournamentEntry, ...]
    pareto: Tuple[str, ...]

    @property
    def ranking(self) -> Tuple[str, ...]:
        """The entrant labels, best first."""
        return tuple(entry.label for entry in self.entries)

    @property
    def truncated_entrants(self) -> Tuple[str, ...]:
        """Entrants with at least one replica cut off by the time limit."""
        return tuple(entry.label for entry in self.entries if entry.truncated)


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether objective vector *a* Pareto-dominates *b* (minimisation)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_frontier(
    entries: Sequence[TournamentEntry],
    *,
    metrics: Sequence[str] = PARETO_METRICS,
) -> Tuple[str, ...]:
    """Labels of the non-dominated entrants, in the order given.

    Entrants with identical objective vectors are all on the frontier —
    neither strictly dominates the other.
    """
    vectors = [
        tuple(entry.objective(metric) for metric in metrics) for entry in entries
    ]
    frontier: List[str] = []
    for index, entry in enumerate(entries):
        if not any(
            _dominates(vectors[other], vectors[index])
            for other in range(len(entries))
            if other != index
        ):
            frontier.append(entry.label)
    return tuple(frontier)


def rank_replicas(
    replicas: Mapping[str, ReplicaSet],
    *,
    title: str = "tournament",
    rank_metric: str = DEFAULT_RANK_METRIC,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
) -> TournamentResult:
    """Aggregate, rank and Pareto-classify already-replicated variants.

    Ranking is by ascending mean of *rank_metric*, ties broken by label —
    a total, deterministic order whatever the execution schedule was.
    """
    if not replicas:
        raise ValueError("a tournament needs at least one entrant")
    metrics = tuple(dict.fromkeys((rank_metric,) + REPORT_METRICS + PARETO_METRICS))
    entries = [
        TournamentEntry(
            label=replica.label,
            seeds=replica.seeds,
            stats={
                metric: replica.stats(
                    metric, confidence=confidence, resamples=resamples
                )
                for metric in metrics
            },
            truncated=replica.truncated,
        )
        for replica in replicas.values()
    ]
    entries.sort(key=lambda entry: (entry.objective(rank_metric), entry.label))
    return TournamentResult(
        title=title,
        rank_metric=rank_metric,
        confidence=float(confidence),
        entries=tuple(entries),
        pareto=pareto_frontier(entries),
    )


def run_tournament(
    scenario: Union[str, ScenarioSpec],
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    rank_metric: str = DEFAULT_RANK_METRIC,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    job_count: Optional[int] = None,
    jobs: int = 1,
    cache: Any = None,
    refresh: bool = False,
    overrides: Optional[Mapping[str, Any]] = None,
    client: Any = None,
    timeout: Optional[float] = None,
) -> TournamentResult:
    """Replicate *scenario* across *seeds* and rank its variants.

    The execution knobs (*jobs*, *cache*, *refresh*, *client*, *timeout*)
    are those of :func:`~repro.stats.replication.replicate`; the statistics
    knobs (*rank_metric*, *confidence*, *resamples*) those of
    :func:`rank_replicas`.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    replicas = replicate(
        spec,
        seeds=seeds,
        job_count=job_count,
        jobs=jobs,
        cache=cache,
        refresh=refresh,
        overrides=overrides,
        client=client,
        timeout=timeout,
    )
    return rank_replicas(
        replicas,
        title=spec.name,
        rank_metric=rank_metric,
        confidence=confidence,
        resamples=resamples,
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _interval(stats: MetricStats) -> str:
    """Compact rendering of a confidence interval."""
    return f"[{stats.ci_lower:.2f}, {stats.ci_upper:.2f}]"


def tournament_report(result: TournamentResult) -> str:
    """Plain-text tournament report: ranked table plus Pareto frontier."""
    level = f"{result.confidence * 100:g}%"
    seed_counts = {entry.stats[result.rank_metric].count for entry in result.entries}
    replicas = (
        f"{next(iter(seed_counts))} seeds"
        if len(seed_counts) == 1
        else f"{min(seed_counts)}-{max(seed_counts)} seeds"
    )
    headers = [
        "rank",
        "entrant",
        f"{result.rank_metric} (mean)",
        f"{level} CI",
        "sd",
        "wasted cpu-s",
        "jobs lost",
        "pareto",
    ]
    rows = []
    for rank, entry in enumerate(result.entries, start=1):
        ranked = entry.stats[result.rank_metric]
        rows.append(
            [
                rank,
                entry.label,
                ranked.mean,
                _interval(ranked),
                ranked.stddev,
                entry.stats["wasted_processor_seconds"].mean,
                entry.stats["jobs_lost"].mean,
                "*" if entry.label in result.pareto else "",
            ]
        )
    sections = [
        format_table(
            headers,
            rows,
            title=(
                f"Tournament: {result.title} "
                f"({len(result.entries)} entrants, {replicas}, {level} CI, "
                f"ranked by {result.rank_metric})"
            ),
        ),
        "",
        "Pareto frontier over (" + ", ".join(PARETO_METRICS) + "):",
    ]
    sections.extend(f"  {label}" for label in result.pareto)
    if result.truncated_entrants:
        sections.append("")
        sections.append(
            "WARNING: truncated replicas (metrics partial): "
            + ", ".join(result.truncated_entrants)
        )
    return "\n".join(sections)


def tournament_report_from_results(
    results: Mapping[str, ExperimentResult],
    *,
    title: str = "tournament",
    rank_metric: str = DEFAULT_RANK_METRIC,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
) -> str:
    """Tournament report straight from labelled scenario results.

    The reporter hook of the registered ``tournament`` scenario: the labels
    carry ``@seed<N>`` suffixes from the multi-seed expansion and are grouped
    back into replica sets here.
    """
    return tournament_report(
        rank_replicas(
            group_replicas(results),
            title=title,
            rank_metric=rank_metric,
            confidence=confidence,
            resamples=resamples,
        )
    )
