"""Statistical rigor layer: multi-seed replication, CIs and tournaments.

Every figure of the paper is a single-trajectory estimate; this package
turns any registered scenario into a *replicated* experiment — the same
variants run once per seed of a seed grid, the only replication axis,
aggregated into means, standard deviations and bootstrap confidence
intervals — and stages *tournaments* that emit ranked tables and a Pareto
frontier over responsiveness, wasted work and job losses.  A tournament
ranks the variants of any scenario; the policy × trace × load_factor ×
fault_model grids come from
:func:`repro.experiments.scenarios.tournament_scenario`.

The layer adds no execution machinery of its own: replicas are ordinary
:class:`~repro.experiments.setup.ExperimentConfig` runs flowing through the
sweep engine, the content-addressed result cache and (optionally) the
experiment daemon, so replicated sweeps cache, parallelise and coalesce
exactly like single runs — and repeated tournaments are warm-cache and
byte-identical.

    from repro.stats import run_tournament, tournament_report

    result = run_tournament("figure7", seeds=(0, 1, 2))
    print(tournament_report(result))
"""

from repro.stats.aggregate import (
    BOOTSTRAP_SEED,
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    MetricStats,
    bootstrap_ci,
)
from repro.stats.replication import (
    DEFAULT_SEEDS,
    RESILIENCE_ZERO_DEFAULTS,
    ReplicaSet,
    group_replicas,
    replicate,
)
from repro.stats.tournament import (
    DEFAULT_RANK_METRIC,
    PARETO_METRICS,
    REPORT_METRICS,
    TournamentEntry,
    TournamentResult,
    pareto_frontier,
    rank_replicas,
    run_tournament,
    tournament_report,
    tournament_report_from_results,
)

__all__ = [
    "BOOTSTRAP_SEED",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_RANK_METRIC",
    "DEFAULT_RESAMPLES",
    "DEFAULT_SEEDS",
    "MetricStats",
    "PARETO_METRICS",
    "REPORT_METRICS",
    "RESILIENCE_ZERO_DEFAULTS",
    "ReplicaSet",
    "TournamentEntry",
    "TournamentResult",
    "bootstrap_ci",
    "group_replicas",
    "pareto_frontier",
    "rank_replicas",
    "replicate",
    "run_tournament",
    "tournament_report",
    "tournament_report_from_results",
]
