"""Declarative scenario registry for the experiments layer.

A :class:`ScenarioSpec` describes one of the paper's figures, tables or
ablation sweeps as *data*: a base :class:`~repro.experiments.setup.ExperimentConfig`
field mapping, a tuple of :class:`ScenarioVariant`\\ s (the legend entries)
and a seed grid, plus the reporter that renders the merged results.  The
:mod:`~repro.experiments.engine` turns a spec into concrete configurations
and runs them — in parallel, against the result cache — without any
per-figure driver code.

Adding a scenario is one registry entry::

    register_scenario(ScenarioSpec(
        name="my-sweep",
        title="My sweep",
        base={"approach": "PRA", "placement_policy": "WF"},
        variants=tuple(
            ScenarioVariant(f"EGS/{w}", {"malleability_policy": "EGS", "workload": w})
            for w in ("Wm", "Wmr")
        ),
        reporter=my_report,
    ))

after which ``repro-cli run my-sweep --jobs 4`` just works.

Static scenarios (Figure 6's scaling curves, Table I) do not sweep
``run_experiment`` at all; they provide a ``builder`` that renders the
report directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.engine import ResultCache, run_configs
from repro.experiments.setup import ExperimentConfig, ExperimentResult

#: Signature of a sweep reporter: merged results keyed by variant label -> text.
Reporter = Callable[[Dict[str, ExperimentResult]], str]


@dataclass(frozen=True)
class ScenarioVariant:
    """One legend entry of a scenario: a label and its config overrides."""

    label: str
    overrides: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one figure/table/ablation run.

    Attributes
    ----------
    name:
        Registry key (``repro-cli run <name>``).
    title:
        Human-readable one-liner shown by ``repro-cli list scenarios``.
    base:
        :class:`~repro.experiments.setup.ExperimentConfig` fields shared by
        every variant.
    variants:
        The legend entries; each contributes one run per seed.
    seeds:
        The seed grid: every variant runs once with each seed.
    default_job_count:
        Jobs per workload when the caller does not override it.
    reporter:
        Renders the merged results into the figure's plain-text report.
    builder:
        For static scenarios only: renders the report directly, no sweep.
    """

    name: str
    title: str
    base: Mapping[str, Any] = field(default_factory=dict)
    variants: Tuple[ScenarioVariant, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    default_job_count: int = 300
    reporter: Optional[Reporter] = None
    builder: Optional[Callable[[], str]] = None

    @property
    def is_static(self) -> bool:
        """Whether this scenario renders a report without sweeping configs."""
        return self.builder is not None

    def run_count(self) -> int:
        """Number of experiment runs a full sweep of this scenario performs."""
        return len(self.variants) * len(self.seeds)

    def expand(
        self,
        *,
        job_count: Optional[int] = None,
        seed: Optional[int] = None,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> List[Tuple[str, ExperimentConfig]]:
        """The concrete ``(label, config)`` runs of this scenario, in order.

        *seed* replaces the spec's whole seed grid with a single seed;
        *overrides* wins over both the base mapping and the variants.  Labels
        stay bare for single-seed sweeps and grow an ``@seed<N>`` suffix only
        when needed, so the common case keys results exactly like the paper's
        legends (``"FPSMA/Wm"``).

        "When needed" includes a *seed* override that changes the grid: two
        runs of the same scenario with different ``--seed`` values must not
        produce colliding bare labels that overwrite each other in merged
        reports, so the suffix appears whenever the effective seed grid
        differs from the spec's own (only ``seed == the spec's sole default``
        stays bare).
        """
        if self.is_static:
            raise ValueError(f"scenario {self.name!r} is static and has no config grid")
        seeds = (int(seed),) if seed is not None else self.seeds
        label_seeds = len(seeds) > 1 or (seed is not None and seeds != self.seeds)
        pairs: List[Tuple[str, ExperimentConfig]] = []
        for variant in self.variants:
            for run_seed in seeds:
                fields: Dict[str, Any] = dict(self.base)
                fields.update(variant.overrides)
                if overrides:
                    fields.update(overrides)
                if job_count is not None:
                    fields["job_count"] = int(job_count)
                else:
                    fields.setdefault("job_count", self.default_job_count)
                fields["seed"] = run_seed
                fields.setdefault("name", f"{self.name}-{_slug(variant.label)}")
                label = variant.label
                if label_seeds:
                    label += f"@seed{run_seed}"
                # The validated builder: a typo'd override key (from a
                # variant, the base mapping or a caller's --set flag)
                # fails with the valid fields listed, not a TypeError.
                pairs.append((label, ExperimentConfig().with_overrides(**fields)))
        return pairs


_SEED_SUFFIX = re.compile(r"@seed\d+")


def strip_seed_suffix(label: str) -> str:
    """*label* without its ``@seed<N>`` suffix: the variant's own label.

    The statistics layer groups a seed grid's results per variant with it.
    A caller that runs a scenario at one non-default seed re-keys its
    results with it to get the bare ``"policy/workload"`` keys back, which
    stay unique because only one seed ran.
    """
    return _SEED_SUFFIX.sub("", label)


def _slug(label: str) -> str:
    """Config-name-safe version of a variant label."""
    for old, new in (
        ("/", "-"), ("'", "p"), ("=", "-"), (" ", ""), ("?", "-"), ("&", "-"),
        ('"', "p"),
    ):
        label = label.replace(old, new)
    return label


def policy_variants(
    field_name: str, refs: Sequence[Optional[str]], *, scenario: str
) -> Tuple[ScenarioVariant, ...]:
    """Variants sweeping one policy *field* over policy references.

    Each reference may be a bare registered name (``"EGS"``) or a
    parameterised form (``"EASY?reserve_depth=2"``), so a single scenario can
    sweep over policy *parameters*, not just policy names.  ``None`` means
    "disabled" (only meaningful for ``malleability_policy``).
    """
    return tuple(
        ScenarioVariant(
            str(ref) if ref is not None else "none",
            {
                field_name: ref,
                "name": f"{scenario}-{_slug(str(ref) if ref is not None else 'none')}",
            },
        )
        for ref in refs
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, overwrite: bool = False) -> ScenarioSpec:
    """Add *spec* to the registry (and return it)."""
    if not overwrite and spec.name in _SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """The registered scenario called *name*."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names() -> Tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def iter_scenarios() -> Iterable[ScenarioSpec]:
    """The registered scenarios, sorted by name."""
    return (_SCENARIOS[name] for name in scenario_names())


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    *,
    job_count: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    cache: Union[ResultCache, str, None] = None,
    refresh: bool = False,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Dict[str, ExperimentResult]:
    """Run every configuration of *scenario* and merge the results.

    The heavy lifting — parallel fan-out over ``jobs`` worker processes,
    cache lookups and stable-order merging — happens in
    :func:`repro.experiments.engine.run_configs`.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    pairs = spec.expand(job_count=job_count, seed=seed, overrides=overrides)
    results = run_configs(
        [config for _, config in pairs], jobs=jobs, cache=cache, refresh=refresh
    )
    return {label: result for (label, _), result in zip(pairs, results)}


def scenario_report(
    scenario: Union[str, ScenarioSpec],
    results: Optional[Dict[str, ExperimentResult]] = None,
) -> str:
    """The plain-text report of *scenario*.

    A static scenario builds its report itself; a sweep scenario renders the
    *results* of :func:`run_scenario`.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if spec.is_static:
        assert spec.builder is not None
        return spec.builder()
    if results is None:
        raise ValueError(f"scenario {spec.name!r} sweeps configurations: pass its results")
    if spec.reporter is None:
        from repro.metrics.reports import summary_table

        return summary_table(
            {label: r.metrics for label, r in results.items()}, title=spec.title
        )
    return spec.reporter(results)


# ---------------------------------------------------------------------------
# Spec factories: the paper's figures and the ablation sweeps as data
# ---------------------------------------------------------------------------


def _policy_workload_variants(
    combinations: Sequence[Tuple[str, str]], name: str
) -> Tuple[ScenarioVariant, ...]:
    return tuple(
        ScenarioVariant(
            f"{policy}/{workload}",
            {
                "malleability_policy": policy,
                "workload": workload,
                "name": f"{name}-{policy}-{workload}",
            },
        )
        for policy, workload in combinations
    )


def figure7_scenario(
    combinations: Optional[Sequence[Tuple[str, str]]] = None,
) -> ScenarioSpec:
    """Figure 7: {FPSMA, EGS} x {Wm, Wmr} under PRA with Worst-Fit placement."""
    from repro.experiments.figure7 import (
        FIGURE7_COMBINATIONS,
        FIGURE7_PANELS,
        six_panel_report,
    )

    return ScenarioSpec(
        name="figure7",
        title="Figure 7 - FPSMA vs EGS under PRA on Wm/Wmr (6 panels)",
        base={"approach": "PRA", "placement_policy": "WF"},
        variants=_policy_workload_variants(
            combinations if combinations is not None else FIGURE7_COMBINATIONS,
            "figure7",
        ),
        reporter=partial(six_panel_report, panels=FIGURE7_PANELS),
    )


def figure8_scenario(
    combinations: Optional[Sequence[Tuple[str, str]]] = None,
) -> ScenarioSpec:
    """Figure 8: {FPSMA, EGS} x {W'm, W'mr} under PWA in a saturated system."""
    from repro.experiments.figure7 import six_panel_report
    from repro.experiments.figure8 import FIGURE8_COMBINATIONS, FIGURE8_PANELS
    from repro.experiments.setup import FIGURE8_BACKGROUND_PROFILE

    return ScenarioSpec(
        name="figure8",
        title="Figure 8 - FPSMA vs EGS under PWA on W'm/W'mr (6 panels)",
        base={
            "approach": "PWA",
            "placement_policy": "WF",
            "background_fraction": dict(FIGURE8_BACKGROUND_PROFILE),
        },
        variants=_policy_workload_variants(
            combinations if combinations is not None else FIGURE8_COMBINATIONS,
            "figure8",
        ),
        reporter=partial(six_panel_report, panels=FIGURE8_PANELS),
    )


def figure6_scenario() -> ScenarioSpec:
    """Figure 6: the applications' execution-time scaling curves (static)."""
    from repro.experiments.figure6 import figure6_report, run_figure6

    return ScenarioSpec(
        name="figure6",
        title="Figure 6 - execution time vs machines for FT and GADGET-2",
        builder=lambda: figure6_report(run_figure6()),
    )


def table1_scenario() -> ScenarioSpec:
    """Table I: the DAS-3 cluster layout the experiments run on (static)."""
    from repro.experiments.table1 import table1_report

    return ScenarioSpec(
        name="table1",
        title="Table I - distribution of the nodes over the DAS-3 clusters",
        builder=table1_report,
    )


def _ablation_spec(
    study: str,
    title: str,
    variants: Iterable[ScenarioVariant],
    base: Optional[Mapping[str, Any]] = None,
    *,
    default_job_count: int = 60,
) -> ScenarioSpec:
    """An ``ablation-<study>`` sweep of a knob the paper mentions but does not vary.

    Its report is one summary table.
    """
    return ScenarioSpec(
        name=f"ablation-{study}",
        title=title,
        base=dict(base or {}),
        variants=tuple(variants),
        default_job_count=default_job_count,
        reporter=partial(_ablation_results_report, title=f"Ablation study: {study}"),
    )


def _ablation_results_report(results: Dict[str, ExperimentResult], *, title: str) -> str:
    from repro.metrics.reports import summary_table

    return summary_table({label: r.metrics for label, r in results.items()}, title=title)


def approach_ablation_scenario(
    *, workload: str = "W'm", policy: str = "EGS", approaches: Sequence[str] = ("PRA", "PWA")
) -> ScenarioSpec:
    """PRA versus PWA on the same high-load workload and policy."""
    return _ablation_spec(
        "approach",
        "Ablation - PRA vs PWA on one workload/policy",
        (
            ScenarioVariant(
                f"{approach}/{policy}/{workload}",
                {"approach": approach, "name": f"ablation-approach-{approach}"},
            )
            for approach in approaches
        ),
        base={"workload": workload, "malleability_policy": policy},
    )


def policy_ablation_scenario(
    *,
    workload: str = "Wm",
    approach: str = "PRA",
    policies: Sequence[Optional[str]] = ("FPSMA", "EGS", "EQUIPARTITION", "FOLDING", None),
) -> ScenarioSpec:
    """The paper's policies against related-work baselines and no malleability."""
    return _ablation_spec(
        "policy",
        "Ablation - malleability policies incl. baselines",
        (
            ScenarioVariant(
                f"{policy or 'no-malleability'}/{workload}",
                {
                    "malleability_policy": policy,
                    "name": f"ablation-policy-{policy or 'none'}",
                },
            )
            for policy in policies
        ),
        base={"workload": workload, "approach": approach},
    )


def threshold_ablation_scenario(
    *, workload: str = "Wm", thresholds: Sequence[int] = (0, 4, 16, 32)
) -> ScenarioSpec:
    """Effect of the per-cluster idle threshold reserved for local users."""
    return _ablation_spec(
        "threshold",
        "Ablation - idle-processor threshold left to local users",
        (
            ScenarioVariant(
                f"threshold={threshold}",
                {"grow_threshold": threshold, "name": f"ablation-threshold-{threshold}"},
            )
            for threshold in thresholds
        ),
        base={"workload": workload, "malleability_policy": "EGS", "approach": "PRA"},
    )


def overhead_ablation_scenario(
    *, workload: str = "Wm", submission_latencies: Sequence[float] = (0.0, 5.0, 30.0, 120.0)
) -> ScenarioSpec:
    """Effect of the GRAM grow/shrink overhead on job execution times.

    The paper stresses that this overhead is usually neglected; sweeping the
    GRAM submission latency shows when reconfiguration costs start eating the
    benefit of malleability.
    """
    return _ablation_spec(
        "overhead",
        "Ablation - GRAM submission latency (grow/shrink overhead)",
        (
            ScenarioVariant(
                f"gram-latency={latency:g}s",
                {
                    "gram_submission_latency": latency,
                    "name": f"ablation-overhead-{latency:g}",
                },
            )
            for latency in submission_latencies
        ),
        base={"workload": workload, "malleability_policy": "EGS", "approach": "PRA"},
    )


def reconfiguration_cost_ablation_scenario(
    *, workload: str = "Wm", costs: Sequence[float] = (0.0, 5.0, 30.0, 90.0)
) -> ScenarioSpec:
    """Effect of the application-side data-redistribution pause."""
    return _ablation_spec(
        "reconfiguration",
        "Ablation - application data-redistribution cost",
        (
            ScenarioVariant(
                f"reconfig-cost={cost:g}s",
                {
                    "reconfiguration_cost": cost,
                    "name": f"ablation-reconfig-{cost:g}",
                },
            )
            for cost in costs
        ),
        base={"workload": workload, "malleability_policy": "EGS", "approach": "PRA"},
        default_job_count=40,
    )


def placement_ablation_scenario(
    *, workload: str = "Wm", policies: Sequence[str] = ("WF", "CF", "CM", "FCM")
) -> ScenarioSpec:
    """Interaction of malleability with the different placement policies."""
    return _ablation_spec(
        "placement",
        "Ablation - placement policies (WF/CF/CM/FCM)",
        (
            ScenarioVariant(
                f"placement={placement}",
                {
                    "placement_policy": placement,
                    "name": f"ablation-placement-{placement}",
                },
            )
            for placement in policies
        ),
        base={"workload": workload, "malleability_policy": "EGS", "approach": "PRA"},
    )


def backfilling_scenario(
    *,
    workload: str = "Wm",
    placements: Sequence[str] = ("WF", "EASY", "EASY?reserve_depth=2"),
) -> ScenarioSpec:
    """The new FCFS+EASY-backfilling placement policy against Worst-Fit.

    Sweeps the ``placement_policy`` axis over Worst-Fit and the EASY policy
    at two reservation depths — a policy-*parameter* sweep expressed directly
    in the scenario registry.
    """
    return ScenarioSpec(
        name="backfilling",
        title="New policy - FCFS+EASY backfilling placement vs Worst-Fit",
        base={"workload": workload, "malleability_policy": "EGS", "approach": "PRA"},
        variants=policy_variants(
            "placement_policy", placements, scenario="backfilling"
        ),
        default_job_count=60,
    )


def average_steal_scenario(
    *,
    workload: str = "Wm",
    policies: Sequence[str] = (
        "FPSMA",
        "EGS",
        "AVERAGE_STEAL",
        "AVERAGE_STEAL?balance='absolute'",
    ),
) -> ScenarioSpec:
    """The new average-steal fair-share policy against the paper's policies.

    Includes both ``balance`` modes of the new policy, demonstrating that
    scenario sweeps cover parameterised policies end-to-end (construction,
    labels and result-cache keys all flow through the canonical spec string).
    """
    return ScenarioSpec(
        name="average-steal",
        title="New policy - ElastiSim-style average-steal malleability policy",
        base={"workload": workload, "approach": "PRA"},
        variants=policy_variants(
            "malleability_policy", policies, scenario="average-steal"
        ),
        default_job_count=60,
    )


def trace_replay_scenario(
    *,
    trace: str = "das3-synthetic",
    policies: Sequence[Optional[str]] = ("FPSMA", "EGS", None),
) -> ScenarioSpec:
    """Replay a named trace under the paper's malleability policies.

    The workload axis is a ``trace:`` reference resolved by the workload
    registry, so the same sweep/cache/CLI machinery that runs the synthetic
    paper workloads replays archive-style traces: the bundled deterministic
    DAS-3-style synthetic trace by default, or any ``.swf`` file in
    ``traces/`` / ``$REPRO_TRACES_DIR`` by name.
    """
    return ScenarioSpec(
        name="trace-replay",
        title="Trace replay - malleability policies on an SWF trace",
        base={
            "workload": f"trace:{trace}",
            "approach": "PRA",
            "placement_policy": "WF",
        },
        variants=tuple(
            ScenarioVariant(
                f"{policy or 'no-malleability'}/{trace}",
                {
                    "malleability_policy": policy,
                    "name": f"trace-replay-{_slug(policy or 'none')}",
                },
            )
            for policy in policies
        ),
        default_job_count=60,
    )


def trace_load_sweep_scenario(
    *,
    trace: str = "das3-synthetic",
    load_factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    policy: str = "EGS",
) -> ScenarioSpec:
    """Sweep the load factor of a trace's arrival process under one policy.

    Each variant replays the *same* trace with its inter-arrival gaps rescaled
    (factor 2 = double load), the trace counterpart of the paper deriving
    W'm from Wm by compressing arrivals.
    """
    return ScenarioSpec(
        name="trace-load-sweep",
        title="Trace replay - load-factor sweep of an SWF trace's arrivals",
        base={
            "malleability_policy": policy,
            "approach": "PRA",
            "placement_policy": "WF",
        },
        variants=tuple(
            ScenarioVariant(
                f"load={factor:g}x/{trace}",
                {
                    "workload": f"trace:{trace}?load_factor={factor:g}",
                    "name": f"trace-load-{factor:g}",
                },
            )
            for factor in load_factors
        ),
        default_job_count=60,
    )


def fault_sweep_scenario(
    *,
    workload: str = "Wmr",
    mtbfs: Sequence[float] = (43200.0, 10800.0),
    mttr: float = 900.0,
    policies: Sequence[Optional[str]] = ("FPSMA", "EGS", None),
) -> ScenarioSpec:
    """MTBF sweep x policy grid under exponential per-node churn.

    Every variant replays the same mixed malleable/rigid workload (Wmr by
    default) while nodes fail and return with the given per-node MTBF/MTTR;
    the resilience metrics then show malleable jobs shrinking through
    failures that kill their rigid peers, and how the gap widens as the
    machine gets flakier.
    """
    return ScenarioSpec(
        name="fault-sweep",
        title="Faults - MTBF sweep x malleability policies under node churn",
        base={
            "workload": workload,
            "approach": "PRA",
            "placement_policy": "WF",
        },
        variants=tuple(
            ScenarioVariant(
                f"{policy or 'no-malleability'}/mtbf={mtbf:g}",
                {
                    "malleability_policy": policy,
                    "fault_model": f"fault:exp?mtbf={mtbf:g}&mttr={mttr:g}",
                    "name": f"fault-sweep-{_slug(policy or 'none')}-{mtbf:g}",
                },
            )
            for policy in policies
            for mtbf in mtbfs
        ),
        default_job_count=40,
    )


def churn_replay_scenario(
    *,
    trace: str = "das3-synthetic",
    fault: str = "fault:exp?mtbf=21600&mttr=900",
    policy: str = "EGS",
) -> ScenarioSpec:
    """Replay one trace under churn, all-malleable versus all-rigid.

    The sharpest resilience comparison possible: the *same* job stream with
    the *same* failure sequence, where the only difference is whether jobs
    are malleable.  The malleable variant shows shrink-rescues where the
    rigid variant shows kills and resubmissions.
    """
    return ScenarioSpec(
        name="churn-replay",
        title="Faults - trace replay under churn, malleable vs rigid jobs",
        base={
            "approach": "PRA",
            "placement_policy": "WF",
            "malleability_policy": policy,
            "fault_model": fault,
        },
        variants=(
            ScenarioVariant(
                f"malleable/{trace}",
                {
                    "workload": f"trace:{trace}?malleable=1&max_procs=32",
                    "name": "churn-replay-malleable",
                },
            ),
            ScenarioVariant(
                f"rigid/{trace}",
                {
                    "workload": f"trace:{trace}?malleable=0&max_procs=32",
                    "name": "churn-replay-rigid",
                },
            ),
        ),
        default_job_count=40,
    )


def background_load_ablation_scenario(
    *, workload: str = "Wm", interarrivals: Sequence[float] = (float("inf"), 300.0, 60.0)
) -> ScenarioSpec:
    """Resilience to background load submitted directly to the local RMs."""
    from repro.cluster.background import BackgroundLoadSpec

    def variant(interarrival: float) -> ScenarioVariant:
        if interarrival == float("inf"):
            return ScenarioVariant(
                "background=none",
                {"background": {}, "name": "ablation-background-inf"},
            )
        background = {
            name: BackgroundLoadSpec(
                mean_interarrival=interarrival,
                mean_duration=600.0,
                min_processors=1,
                max_processors=8,
            )
            for name in ("vu", "uva", "delft", "multimedian", "leiden")
        }
        return ScenarioVariant(
            f"background={interarrival:g}s",
            {"background": background, "name": f"ablation-background-{interarrival:g}"},
        )

    return _ablation_spec(
        "background",
        "Ablation - resilience to load bypassing KOALA",
        (variant(interarrival) for interarrival in interarrivals),
        base={"workload": workload, "malleability_policy": "EGS", "approach": "PRA"},
    )


def _tournament_results_report(results: Dict[str, ExperimentResult]) -> str:
    """Reporter hook of the tournament scenario (lazy: no stats import here)."""
    from repro.stats.tournament import tournament_report_from_results

    return tournament_report_from_results(results, title="tournament")


def tournament_scenario(
    *,
    policies: Sequence[Optional[str]] = ("FPSMA", "EGS"),
    trace: str = "das3-synthetic",
    load_factors: Sequence[float] = (1.0, 2.0),
    fault_models: Sequence[Optional[str]] = (None, "fault:exp?mtbf=21600&mttr=900"),
    seeds: Sequence[int] = (0, 1, 2),
    default_job_count: int = 20,
    name: str = "tournament",
) -> ScenarioSpec:
    """A policy × trace × load_factor × fault_model tournament grid.

    Every cell of the cross product replays the *same* trace — rescaled per
    load factor, struck (or not) by the fault model — under one malleability
    policy, across the whole seed grid.  The reporter aggregates the
    replicas into means and bootstrap confidence intervals and ranks the
    entrants (see :mod:`repro.stats.tournament`); the statistics layer can
    also replicate the spec directly via ``repro-cli tournament``.

    The variants are plain data on purpose: building the grid must not pull
    the statistics layer in at import time (only the reporter does, lazily),
    which keeps the registry import-cycle-free.
    """

    def fault_tag(fault: Optional[str]) -> str:
        return "no-faults" if fault is None else fault.split(":", 1)[-1]

    return ScenarioSpec(
        name=name,
        title="Tournament - policy x load x faults grid with multi-seed CIs",
        base={"approach": "PRA", "placement_policy": "WF"},
        variants=tuple(
            ScenarioVariant(
                f"{policy or 'no-malleability'}/load={factor:g}x/{fault_tag(fault)}",
                {
                    "malleability_policy": policy,
                    "workload": f"trace:{trace}?load_factor={factor:g}",
                    "fault_model": fault,
                    "name": (
                        f"{name}-{_slug(policy or 'none')}-{factor:g}"
                        f"-{_slug(fault_tag(fault))}"
                    ),
                },
            )
            for policy in policies
            for factor in load_factors
            for fault in fault_models
        ),
        seeds=tuple(int(seed) for seed in seeds),
        default_job_count=default_job_count,
        reporter=_tournament_results_report,
    )


def _shard_replay_report(results: Dict[str, ExperimentResult]) -> str:
    lines = ["Sharded replay - deterministic bursty rigid workload", ""]
    for label in sorted(results):
        metrics = results[label].metrics
        lines.append(f"{label}: {metrics.job_count} jobs finished")
    return "\n".join(lines)


def shard_replay_scenario() -> ScenarioSpec:
    """The sharded-replay regime: huge deterministic bursts, rigid jobs only.

    The base mirrors :func:`repro.checkpoint.shard.shard_bench_config`
    field-for-field (a test pins the equality), so ``repro-cli run
    shard-replay --job-count 2000`` simulates exactly the configuration whose
    shard-engine digest and event count ``tests/golden`` pins at 500,000 jobs.
    """
    return ScenarioSpec(
        name="shard-replay",
        title="Sharded million-job replay (checkpoint subsystem bench)",
        base={
            "name": "shard-replay",
            "workload": "shard-bursts",
            "malleability_policy": None,
            "approach": "PRA",
            "placement_policy": "WF",
            "gram_latency_jitter": 0.0,
            "background_fraction": 0.0,
            "time_limit": 4.0e9,
        },
        variants=(ScenarioVariant("shard-bursts/rigid"),),
        default_job_count=500_000,
        reporter=_shard_replay_report,
    )


# Register the paper's scenarios.  Each entry is the single source of truth
# for what ``repro-cli run <name>`` executes.
for _factory in (
    figure6_scenario,
    figure7_scenario,
    figure8_scenario,
    table1_scenario,
    approach_ablation_scenario,
    policy_ablation_scenario,
    threshold_ablation_scenario,
    overhead_ablation_scenario,
    reconfiguration_cost_ablation_scenario,
    placement_ablation_scenario,
    background_load_ablation_scenario,
    backfilling_scenario,
    average_steal_scenario,
    trace_replay_scenario,
    trace_load_sweep_scenario,
    fault_sweep_scenario,
    churn_replay_scenario,
    shard_replay_scenario,
    tournament_scenario,
):
    register_scenario(_factory())
