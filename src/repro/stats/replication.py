"""Multi-seed replication of registered scenarios.

:func:`replicate` runs every variant of a scenario across a *seed grid* and
groups the results per variant into :class:`ReplicaSet`\\ s — the sampling
layer every statistic in :mod:`repro.stats` is computed over.  It rides the
existing sweep engine end to end: each ``(variant, seed)`` cell is one
ordinary :class:`~repro.experiments.setup.ExperimentConfig`, so replicas fan
out over the same worker pool, hit the same content-addressed result cache
and coalesce in the daemon exactly like any other run.  Replicating a
scenario a second time is therefore warm-cache and byte-identical.

Execution backends
------------------
* **In-process / process pool** (the default): the engine's
  :func:`~repro.experiments.engine.run_configs` with ``jobs`` workers.
* **Daemon-backed** (``client=``): the whole grid is enqueued in one
  ``batch`` request on a running experiment service, then collected with
  ``run_and_wait`` per cell — identical configurations submitted by other
  clients coalesce with ours, and results persist in the daemon's store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.engine import ResultCache, record_to_result, run_configs
from repro.experiments.scenarios import ScenarioSpec, get_scenario, strip_seed_suffix
from repro.experiments.setup import ExperimentConfig, ExperimentResult
from repro.stats.aggregate import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    MetricStats,
)

#: Default seed grid of the statistics layer: three independent replicas.
DEFAULT_SEEDS: Tuple[int, ...] = (0, 1, 2)

#: Metrics that are structurally absent from fault-free runs and count as
#: zero there: a run without a fault model wastes no work and loses no jobs.
RESILIENCE_ZERO_DEFAULTS = frozenset(
    {
        "node_failures",
        "jobs_killed",
        "resubmissions",
        "jobs_lost",
        "shrink_rescues",
        "local_jobs_killed",
        "wasted_processor_seconds",
    }
)

@dataclass(frozen=True)
class ReplicaSet:
    """All replicas (one per seed) of one scenario variant."""

    label: str
    results: Tuple[ExperimentResult, ...]

    @property
    def seeds(self) -> Tuple[int, ...]:
        """The run seeds of the replicas, in execution order."""
        return tuple(result.config.seed for result in self.results)

    @property
    def count(self) -> int:
        """Number of replicas."""
        return len(self.results)

    @property
    def truncated(self) -> bool:
        """Whether any replica hit its simulated-time limit."""
        return any(result.truncated for result in self.results)

    def samples(self, metric: str) -> List[float]:
        """The per-replica values of *metric*, in replica order.

        *metric* is a key of
        :meth:`~repro.metrics.collector.ExperimentMetrics.summary`.
        Resilience metrics absent from fault-free runs count as ``0.0``;
        any other unknown metric raises :class:`KeyError` with the known
        keys listed, so a typo'd metric name cannot silently aggregate to
        a column of zeros.
        """
        values: List[float] = []
        for result in self.results:
            summary = result.metrics.summary()
            if metric in summary:
                values.append(float(summary[metric]))
            elif metric in RESILIENCE_ZERO_DEFAULTS:
                values.append(0.0)
            else:
                known = sorted(set(summary) | RESILIENCE_ZERO_DEFAULTS)
                raise KeyError(
                    f"unknown metric {metric!r}; known: {', '.join(known)}"
                )
        return values

    def stats(
        self,
        metric: str,
        *,
        confidence: float = DEFAULT_CONFIDENCE,
        resamples: int = DEFAULT_RESAMPLES,
    ) -> MetricStats:
        """Mean / stddev / bootstrap CI of *metric* over the replicas."""
        return MetricStats.from_samples(
            metric, self.samples(metric), confidence=confidence, resamples=resamples
        )


def _seed_grid(seeds: Sequence[int]) -> Tuple[int, ...]:
    """Validated seed grid: non-empty, non-negative, duplicate-free."""
    grid = tuple(int(seed) for seed in seeds)
    if not grid:
        raise ValueError("at least one seed is required")
    if any(seed < 0 for seed in grid):
        raise ValueError(f"seeds must be non-negative, got {grid}")
    if len(set(grid)) != len(grid):
        raise ValueError(f"seeds must be distinct, got {grid}")
    return grid


def _run_via_daemon(
    client: Any,
    configs: Sequence[ExperimentConfig],
    *,
    timeout: Optional[float],
) -> List[ExperimentResult]:
    """Execute *configs* on a running experiment daemon.

    One ``batch`` request enqueues the whole grid (deduplicating identical
    configurations daemon-side), then each cell is collected with
    ``run_and_wait`` — which attaches to the in-flight job rather than
    resubmitting, so the grid executes each distinct configuration once.
    """
    client.batch([config.to_dict() for config in configs])
    results: List[ExperimentResult] = []
    for config in configs:
        response = client.run_and_wait(
            config, timeout=timeout, response_format="detailed"
        )
        results.append(record_to_result(response["record"]))
    return results


def replicate(
    scenario: Union[str, ScenarioSpec],
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    job_count: Optional[int] = None,
    jobs: int = 1,
    cache: Union[ResultCache, str, None] = None,
    refresh: bool = False,
    overrides: Optional[Mapping[str, Any]] = None,
    client: Any = None,
    timeout: Optional[float] = None,
) -> Dict[str, ReplicaSet]:
    """Run every variant of *scenario* across *seeds*; group per variant.

    Returns replica sets keyed by the variant's bare label (seed suffixes
    stripped), in the scenario's variant order.  With ``client`` set (a
    :class:`~repro.service.client.ServiceClient`), execution happens on the
    daemon via its batch operation instead of a local worker pool — *jobs*,
    *cache* and *refresh* are then daemon-side concerns and must be left at
    their defaults.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if spec.is_static:
        raise ValueError(f"scenario {spec.name!r} is static and cannot be replicated")
    grid = _seed_grid(seeds)
    if client is not None and (refresh or jobs != 1 or cache is not None):
        raise ValueError(
            "daemon-backed replication delegates execution entirely: "
            "jobs/cache/refresh must be left at their defaults"
        )
    per_seed = [
        spec.expand(job_count=job_count, seed=seed, overrides=overrides)
        for seed in grid
    ]
    configs = [config for pairs in per_seed for _, config in pairs]
    if client is not None:
        results = _run_via_daemon(client, configs, timeout=timeout)
    else:
        results = run_configs(configs, jobs=jobs, cache=cache, refresh=refresh)

    width = len(per_seed[0])
    grouped: Dict[str, List[ExperimentResult]] = {}
    for variant_index in range(width):
        label = strip_seed_suffix(per_seed[0][variant_index][0])
        bucket = grouped.setdefault(label, [])
        for seed_index in range(len(grid)):
            bucket.append(results[seed_index * width + variant_index])
    return {
        label: ReplicaSet(label=label, results=tuple(bucket))
        for label, bucket in grouped.items()
    }


def group_replicas(
    results: Mapping[str, ExperimentResult]
) -> Dict[str, ReplicaSet]:
    """Group already-run labelled results into replica sets.

    The adapter between the ordinary scenario execution path (which returns
    ``{label: result}`` with ``@seed<N>`` suffixes on multi-seed sweeps) and
    the statistics layer: labels sharing a bare prefix become one
    :class:`ReplicaSet`, in first-appearance order.
    """
    grouped: Dict[str, List[ExperimentResult]] = {}
    for label, result in results.items():
        grouped.setdefault(strip_seed_suffix(label), []).append(result)
    return {
        label: ReplicaSet(label=label, results=tuple(bucket))
        for label, bucket in grouped.items()
    }
