"""Shared experiment machinery: configuration, construction and execution.

An :class:`ExperimentConfig` captures one run of the paper's experimental
setup — which workload, which malleability policy, which job-management
approach, which placement policy, and the substrate parameters (GRAM
latencies, KIS poll interval, background load, seed).
:class:`SimulationRun` builds the simulated DAS-3, the scheduler and the
workload submitter and advances them to completion; :func:`run_experiment`
runs one configuration that way and returns the collected
:class:`~repro.metrics.collector.ExperimentMetrics`.
"""

from __future__ import annotations

import functools
import gc
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from math import inf
from numbers import Integral
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional, TypeVar, cast

from repro.cluster.background import BackgroundLoadSpec
from repro.cluster.das3 import DAS3_CLUSTERS, das3_multicluster
from repro.cluster.multicluster import Multicluster
from repro.koala.scheduler import KoalaScheduler, SchedulerConfig
from repro.metrics.collector import ExperimentMetrics, run_digest
from repro.policies.registry import spec_string
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.workloads.registry import build_named_workload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.submission import WorkloadSubmitter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.windowed import WindowedCollector
    from repro.obs.trace import Tracer

#: Safety bound on simulated time: generous enough for every paper workload
#: (300 jobs, worst case fully serialised) while still bounding runaway runs.
DEFAULT_TIME_LIMIT = 500_000.0

#: Per-cluster fraction of capacity occupied, on average, by the jobs of
#: concurrent (non-KOALA) users.  The DAS-3 is a shared production research
#: testbed; the paper notes that "the only background load during the
#: experiments is the activity of concurrent users" and designs KOALA to be
#: resilient to load that bypasses it.  The exact background during the
#: paper's runs is unknowable; this default reproduces the two effects that
#: matter for the scheduling dynamics observed in Figures 7 and 8: (i) KOALA
#: jobs compete for a *fraction* of the machine, and (ii) the load is uneven
#: across clusters, so the Worst-Fit policy concentrates KOALA jobs on the
#: one or two least-loaded clusters, where several malleable jobs then share
#: each batch of released processors.  Set the fraction to 0.0 to study the
#: policies on an otherwise empty system.
DEFAULT_BACKGROUND_PROFILE: Dict[str, float] = {
    "vu": 0.88,
    "uva": 0.92,
    "delft": 0.62,
    "multimedian": 0.90,
    "leiden": 0.85,
}

#: Uniform background fraction used when a single number is requested.
DEFAULT_BACKGROUND_FRACTION = 0.75

#: Heavier background used by the PWA experiments (Figure 8).  The paper's
#: PWA runs exhibit genuine overload — long queue waits, jobs stuck at their
#: minimum sizes and a malleability manager that eventually performs nothing
#: but initial placements — which on a 272-node system with 2-processor
#: placements only occurs when almost no capacity is left to KOALA.  This
#: profile reproduces that regime.
FIGURE8_BACKGROUND_PROFILE: Dict[str, float] = {
    "vu": 0.95,
    "uva": 0.95,
    "delft": 0.90,
    "multimedian": 0.95,
    "leiden": 0.93,
}


def default_background(
    fraction: "float | Dict[str, float] | None" = None,
    *,
    mean_duration: float = 600.0,
    min_processors: int = 2,
    max_processors: int = 12,
) -> Dict[str, BackgroundLoadSpec]:
    """Background-load specifications reproducing concurrent DAS-3 users.

    Each cluster receives an independent Poisson stream of rigid local jobs
    whose offered load equals its fraction of the cluster's capacity.
    *fraction* may be a single number applied to every cluster, a per-cluster
    mapping, or ``None`` for the calibrated :data:`DEFAULT_BACKGROUND_PROFILE`.
    """
    if fraction is None:
        fractions: Dict[str, float] = dict(DEFAULT_BACKGROUND_PROFILE)
    elif isinstance(fraction, dict):
        fractions = dict(fraction)
    else:
        value = float(fraction)
        if not 0.0 <= value < 1.0:
            raise ValueError("fraction must lie in [0, 1)")
        if value == 0.0:
            return {}
        fractions = {cluster.name: value for cluster in DAS3_CLUSTERS}

    mean_size = (min_processors + max_processors) / 2.0
    specs: Dict[str, BackgroundLoadSpec] = {}
    for cluster in DAS3_CLUSTERS:
        cluster_fraction = fractions.get(cluster.name, 0.0)
        if not 0.0 <= cluster_fraction < 1.0:
            raise ValueError(f"fraction for {cluster.name!r} must lie in [0, 1)")
        if cluster_fraction == 0.0:
            continue
        target_busy = cluster_fraction * cluster.nodes
        interarrival = (mean_size * mean_duration) / target_busy
        specs[cluster.name] = BackgroundLoadSpec(
            mean_interarrival=interarrival,
            mean_duration=mean_duration,
            min_processors=min_processors,
            max_processors=max_processors,
        )
    return specs


def _unknown_fields_message(unknown, valid) -> str:
    """The shared unknown-field error text (suggestion + valid-field list)."""
    from repro.refs import suggest

    hints = []
    for key in unknown:
        hint = suggest(key, valid)
        hints.append(f"{key!r} (did you mean {hint!r}?)" if hint else repr(key))
    return (
        f"unknown ExperimentConfig field(s) {', '.join(hints)}; "
        f"valid fields: {', '.join(sorted(valid))}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one experiment run.

    The defaults reproduce the paper's setup: the DAS-3 of Table I, Worst-Fit
    placement, FPSMA malleability management under PRA, workload Wm with 300
    jobs, no staging, and only incidental background load.

    The three policy fields accept anything the unified policy registry
    parses — a registered name (``"EGS"``), a parameterised reference
    (``"EASY?reserve_depth=2"`` or ``{"name": "EASY", "params": {...}}``) or
    a :class:`~repro.policies.registry.PolicySpec` — and are validated and
    canonicalised to their string form at construction time, so a typo'd
    policy fails immediately with the registered names listed, and the cache
    key of a parameterised run is stable.
    """

    name: str = "experiment"
    workload: str = "Wm"
    job_count: int = 300
    malleability_policy: Optional[str] = "FPSMA"
    approach: str = "PRA"
    placement_policy: str = "WF"
    seed: int = 0
    grow_threshold: int = 0
    grow_offer_mode: str = "released"
    poll_interval: float = 15.0
    gram_submission_latency: float = 5.0
    gram_recruit_latency: float = 0.5
    gram_latency_jitter: float = 0.2
    gram_concurrency: Optional[int] = 1
    adaptation_point_interval: float = 2.0
    background: Dict[str, BackgroundLoadSpec] = field(default_factory=dict)
    background_fraction: "float | Dict[str, float] | None" = None
    background_backfilling: bool = True
    reconfiguration_cost: Optional[float] = None
    fault_model: Optional[str] = None
    time_limit: float = DEFAULT_TIME_LIMIT
    #: Structured-trace target: a trace file (``.jsonl``/``.gz``) or a
    #: directory per-run files are created under; ``None`` disables tracing
    #: (unless ``$REPRO_TRACE`` activates it process-wide).  Participates in
    #: :meth:`to_dict` — and therefore the cache key — like every field, so
    #: a traced run is never served from an untraced run's cache entry.
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        self._check_ranges()
        # Validate and canonicalise the policy references now, not when the
        # scheduler is eventually built (the dataclass is frozen, hence the
        # object.__setattr__ dance).
        object.__setattr__(
            self, "placement_policy", spec_string("placement", self.placement_policy)
        )
        if self.malleability_policy is not None:
            object.__setattr__(
                self,
                "malleability_policy",
                spec_string("malleability", self.malleability_policy),
            )
        object.__setattr__(self, "approach", spec_string("approach", self.approach))
        if self.fault_model is not None:
            # Same treatment as the policy axes: a typo'd fault reference
            # fails here with the registered model names listed, and the
            # canonical form keeps result-cache keys stable.
            from repro.faults.models import fault_reference_string

            object.__setattr__(
                self, "fault_model", fault_reference_string(self.fault_model)
            )

    def _check_ranges(self) -> None:
        """Reject, before any run starts, every numeric value no run can use.

        Every check fails on NaN, since all comparisons with NaN are false.
        """

        def check(name: str, ok: bool, rule: str) -> None:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

        def integer(value, least: int) -> bool:
            return isinstance(value, Integral) and value >= least

        for name in ("job_count", "seed", "grow_threshold"):
            check(name, integer(getattr(self, name), 0), "an integer >= 0")
        concurrency = self.gram_concurrency
        check(
            "gram_concurrency",
            concurrency is None or integer(concurrency, 1),
            "None or an integer >= 1",
        )
        check("time_limit", float(self.time_limit) > 0, "> 0")
        check("poll_interval", 0 < self.poll_interval < inf, "finite and > 0")
        for name in ("gram_submission_latency", "gram_recruit_latency"):
            check(name, 0 <= getattr(self, name) < inf, "finite and >= 0")
        interval = self.adaptation_point_interval
        check("adaptation_point_interval", 0 <= interval < inf, "finite and >= 0")
        cost = self.reconfiguration_cost
        check("reconfiguration_cost", cost is None or 0 <= cost < inf, "None or finite and >= 0")
        check("gram_latency_jitter", 0 <= self.gram_latency_jitter < 1, "in [0, 1)")
        # The run always builds the DAS-3: another cluster name would be
        # dropped silently.
        clusters = {cluster.name for cluster in DAS3_CLUSTERS}
        fraction = self.background_fraction
        fractions = fraction if isinstance(fraction, dict) else {}
        for name, named in (("background", self.background), ("background_fraction", fractions)):
            unknown = sorted(set(named) - clusters)
            if unknown:
                raise ValueError(
                    f"{name} names clusters {unknown} outside the DAS-3 {sorted(clusters)}"
                )
        if fraction is not None:
            values = fractions.values() if isinstance(fraction, dict) else [fraction]
            check("background_fraction", all(0 <= v < 1 for v in values), "in [0, 1)")

    @property
    def label(self) -> str:
        """Short label used in reports (e.g. ``"FPSMA/Wm"``)."""
        policy = self.malleability_policy or "none"
        return f"{policy}/{self.workload}"

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy of this configuration with some fields replaced, validated.

        The single override surface used by ``repro-cli``, the daemon's
        submit path and scenario sweeps: a typo'd field name raises
        :class:`ValueError` here — listing the valid fields and suggesting
        the closest one — instead of surfacing later as an opaque
        ``TypeError`` from the dataclass constructor.  Values still go
        through ``__post_init__``, so policy/trace/fault references are
        validated and canonicalised exactly as at construction.
        """
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ValueError(_unknown_fields_message(unknown, valid))
        return replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation of the configuration.

        Nested :class:`~repro.cluster.background.BackgroundLoadSpec` values
        are flattened to plain dicts; everything else is already a scalar.
        The representation is the cache key's input, so it must be complete:
        every field that influences a run appears here.  For file-backed
        trace workloads that includes a digest of the trace file itself —
        the reference string alone would serve stale cached results after
        the ``.swf`` file is edited.  (:meth:`from_dict` ignores the extra
        key: it is derived, not a configuration field.)
        """
        data: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "background":
                value = {
                    name: {
                        "mean_interarrival": spec.mean_interarrival,
                        "mean_duration": spec.mean_duration,
                        "min_processors": spec.min_processors,
                        "max_processors": spec.max_processors,
                        "start_time": spec.start_time,
                        "end_time": spec.end_time,
                    }
                    for name, spec in sorted(value.items())
                }
            data[f.name] = value
        from repro.workloads.traces import is_trace_reference, trace_fingerprint

        if is_trace_reference(self.workload):
            fingerprint = trace_fingerprint(self.workload)
            if fingerprint is not None:
                data["workload_fingerprint"] = fingerprint
        if self.fault_model is not None:
            from repro.faults.models import fault_fingerprint

            fingerprint = fault_fingerprint(self.fault_model)
            if fingerprint is not None:
                data["fault_fingerprint"] = fingerprint
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`.

        Unknown keys are ignored (forward compatibility for records written
        by newer code); use :meth:`from_fields` where a typo must fail.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        kwargs["background"] = {
            name: BackgroundLoadSpec(**spec)
            for name, spec in (kwargs.get("background") or {}).items()
        }
        return cls(**kwargs)

    #: Derived keys :meth:`to_dict` adds for cache keying; accepted (and
    #: recomputed, never trusted) when a rendered config comes back in.
    DERIVED_KEYS = ("workload_fingerprint", "fault_fingerprint")

    @classmethod
    def from_fields(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        """Strict :meth:`from_dict`: unknown field names raise.

        The submit-surface parser (daemon requests, CLI override mappings):
        a typo'd field fails here with the valid fields listed and the
        closest match suggested, exactly like :meth:`with_overrides`.
        """
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - valid - set(cls.DERIVED_KEYS))
        if unknown:
            raise ValueError(_unknown_fields_message(unknown, valid))
        return cls.from_dict(data)


@dataclass
class ExperimentResult:
    """The outcome of one experiment run.

    ``workload`` is the full specification when the run happened in this
    process, and ``None`` when the result was merged back from a worker
    subprocess or loaded from the on-disk cache — those paths only transport
    the JSON-serialisable fields.  Code that needs the submission horizon
    should use :attr:`workload_duration`, which survives every path.

    ``events_processed`` is the number of kernel events the simulation's run
    loop processed.  The exact cases under ``tests/golden`` require each
    run's count to equal its committed value.
    """

    config: ExperimentConfig
    metrics: ExperimentMetrics
    workload: Optional[WorkloadSpec]
    simulated_time: float
    all_done: bool
    workload_duration: float = 0.0
    events_processed: int = 0

    def __post_init__(self) -> None:
        if self.workload is not None and not self.workload_duration:
            self.workload_duration = float(self.workload.duration)

    @property
    def truncated(self) -> bool:
        """Whether the run hit its time limit before every job finished.

        A truncated run's metrics cover only the jobs that completed in time;
        callers (the CLI, reports) surface this loudly instead of passing the
        partial numbers off as a finished experiment.
        """
        return not self.all_done

    @property
    def label(self) -> str:
        """The configuration's label."""
        return self.config.label


def build_workload(config: ExperimentConfig, streams: RandomStreams) -> WorkloadSpec:
    """Create the workload specification named by *config*.

    Name resolution lives in :mod:`repro.workloads.registry`; the paper's
    ``Wm``, ``Wmr``, ``W'm`` and ``W'mr`` are pre-registered (the primes may
    also be written ``Wm'`` / ``Wmr'``) and new names become available to
    every experiment by calling
    :func:`~repro.workloads.registry.register_workload`.
    """
    return build_named_workload(
        config.workload, streams["workload"], job_count=config.job_count
    )


def build_system(
    config: ExperimentConfig,
    env: Environment,
    streams: RandomStreams,
    *,
    scheduler_extra: Optional[Dict[str, object]] = None,
) -> tuple[Multicluster, KoalaScheduler]:
    """Build the DAS-3 multicluster and a scheduler configured per *config*.

    ``scheduler_extra`` feeds :attr:`SchedulerConfig.extra` — the checkpoint
    restore path uses it to re-join the original KIS poll grid.
    """
    background = config.background or default_background(config.background_fraction)
    multicluster = das3_multicluster(
        env,
        streams=streams,
        background=background or None,
        gram_submission_latency=config.gram_submission_latency,
        gram_recruit_latency=config.gram_recruit_latency,
        gram_latency_jitter=config.gram_latency_jitter,
        gram_concurrency=config.gram_concurrency,
        local_backfilling=config.background_backfilling,
    )
    scheduler = KoalaScheduler(
        env,
        multicluster,
        SchedulerConfig(
            placement_policy=config.placement_policy,
            malleability_policy=config.malleability_policy,
            approach=config.approach,
            grow_threshold=config.grow_threshold,
            grow_offer_mode=config.grow_offer_mode,
            poll_interval=config.poll_interval,
            adaptation_point_interval=config.adaptation_point_interval,
            extra=dict(scheduler_extra or {}),
        ),
        streams=streams,
    )
    return multicluster, scheduler


def _profile_registry(config: ExperimentConfig):
    """The application-profile registry for *config*.

    ``None`` (the default registry) unless the configuration overrides the
    applications' reconfiguration cost, in which case the paper's two
    profiles are re-registered with a constant data-redistribution pause.
    """
    if config.reconfiguration_cost is None:
        return None
    from repro.apps.profiles import ProfileRegistry, ft_profile, gadget2_profile
    from repro.apps.reconfiguration import ConstantReconfigurationCost

    cost = ConstantReconfigurationCost(config.reconfiguration_cost)
    registry = ProfileRegistry()
    registry.register(ft_profile(reconfiguration=cost), overwrite=True)
    registry.register(gadget2_profile(reconfiguration=cost), overwrite=True)
    return registry


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then collect the young generation.

    A run's object graph (environment, scheduler, runners, clusters) is
    cyclic, so periodic collections during the run would only scan it again
    and again.  Nothing is collected during the pause, so
    everything the block allocated is still in the youngest generation when
    it ends, and the closing generation-0 collection frees what of it is
    unreachable by then.  What is still reachable is promoted instead, and a
    promoted run graph stays until a full collection, which a process that
    spends most of its time simulating seldom makes, so each entry point
    that simulates lets go of its run inside the pause (see
    :func:`frees_its_run`).  The pause is skipped
    when collection is already off, so a nested pause is a no-op, and
    collection is restored on every exit path.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(generation=0)


_Simulate = TypeVar("_Simulate", bound=Callable[..., Any])


def frees_its_run(simulate: _Simulate) -> _Simulate:
    """Call *simulate* under one GC pause that frees the run it simulated.

    *simulate* builds, advances and reads a simulation in its own frame and
    returns only what outlives the run.  The frame is gone before the pause
    ends, so the pause's closing collection frees the whole run graph
    instead of promoting it.  :func:`run_experiment`, the shard engine's
    window replay, :func:`repro.checkpoint.runner.run_checkpointed` and the
    daemon's checkpointed worker are wrapped this way.
    """

    @functools.wraps(simulate)
    def paused(*args: Any, **kwargs: Any) -> Any:
        with gc_paused():
            return simulate(*args, **kwargs)

    return cast(_Simulate, paused)


@dataclass
class SimulationRun:
    """All live objects of one simulation run, as one value.

    Environment, streams, workload, multicluster, scheduler, submitter,
    optional fault injector and optional streaming-metrics collector.
    :func:`run_experiment`, the checkpoint layer and the shard engine all
    build runs through :meth:`fresh` and advance them through
    :meth:`run_to_completion`, so there is one construction order and one
    stop rule.
    """

    config: ExperimentConfig
    env: Environment
    streams: RandomStreams
    workload: WorkloadSpec
    multicluster: Multicluster
    scheduler: KoalaScheduler
    submitter: WorkloadSubmitter
    injector: Optional[object] = None
    collector: Optional["WindowedCollector"] = None

    @classmethod
    def fresh(
        cls,
        config: ExperimentConfig,
        *,
        workload: Optional[WorkloadSpec] = None,
        retain_jobs: bool = True,
        collect_windowed: bool = False,
        scheduler_extra: Optional[Dict[str, object]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> "SimulationRun":
        """Build a new run.

        The construction order (streams, environment, workload, system,
        injector, submitter) is load-bearing: replay-mode restore re-runs a
        fresh instance and verifies it reaches the captured kernel state
        bit-for-bit, which only holds if every run allocates event ids in
        the same order.  A *tracer* is attached before the system is built,
        so construction-time scheduling (KIS poll, background generators) is
        traced too.
        """
        streams = RandomStreams(seed=config.seed)
        env = Environment()
        if tracer is not None:
            env.set_tracer(tracer)
        if workload is None:
            workload = build_workload(config, streams)
        multicluster, scheduler = build_system(
            config, env, streams, scheduler_extra=scheduler_extra
        )
        injector = None
        if config.fault_model is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(env, scheduler, config.fault_model, streams)
        submitter = WorkloadSubmitter(
            env,
            scheduler,
            workload,
            registry=_profile_registry(config),
            retain_jobs=retain_jobs,
        )
        if tracer is not None:
            scheduler.hooks.set_tracer(tracer)
        collector = None
        if collect_windowed:
            from repro.metrics.windowed import WindowedCollector

            collector = WindowedCollector()
            scheduler.hooks.subscribe(collector)
        return cls(
            config=config,
            env=env,
            streams=streams,
            workload=workload,
            multicluster=multicluster,
            scheduler=scheduler,
            submitter=submitter,
            injector=injector,
            collector=collector,
        )

    @property
    def done(self) -> bool:
        """Whether the workload is fully submitted and every job resolved."""
        return self.submitter.all_submitted.triggered and self.scheduler.all_done

    def run_to_completion(
        self,
        *,
        check_interval: float = 300.0,
        drain: bool = False,
    ) -> None:
        """Advance until the run is done or its time limit is reached.

        The information-service poll and the background generators keep
        producing events forever, so completion is checked in chunks: the
        first check at the end of the workload's submission horizon (but no
        sooner than one *check_interval*), then every *check_interval*
        simulated seconds, never past the configured time limit.  Each chunk
        ends with the clock set to its boundary; an event exactly at a
        boundary fires after the check.  With ``drain=True``, finished jobs
        are evicted at every check so the resident set stays proportional to
        the in-flight working set (the caller is expected to collect metrics
        through a streaming window).

        The loop runs under its own :func:`gc_paused`, which is a no-op
        inside the pause of a function wrapped by :func:`frees_its_run`.  A
        direct caller still holds the run when that pause ends, so the run
        is promoted, not freed: code that runs many simulations goes through
        such a function.
        """
        env = self.env
        limit = float(self.config.time_limit)
        # A restored run may resume past the first boundary.
        boundary = max(env.now, min(limit, max(self.workload.duration, check_interval)))
        with gc_paused():
            while True:
                env.run(until=boundary)
                if drain:
                    self.scheduler.drain_finished()
                if self.done or env.now >= limit:
                    break
                boundary = min(limit, env.now + check_interval)


def _open_tracer(config: ExperimentConfig) -> Optional["Tracer"]:
    """The tracer *config* (or ``$REPRO_TRACE``) asks for, if any."""
    target = config.trace or os.environ.get("REPRO_TRACE")
    if not target:
        return None
    from repro.obs.trace import Tracer, open_sink, resolve_trace_path

    return Tracer(
        open_sink(resolve_trace_path(target, config)),
        meta={
            "label": config.label,
            "seed": config.seed,
            "workload": config.workload,
            "job_count": config.job_count,
        },
    )


@frees_its_run
def run_experiment(
    config: ExperimentConfig, *, workload: Optional[WorkloadSpec] = None
) -> ExperimentResult:
    """Run one experiment to completion and collect its metrics.

    Building, running and reading the simulation share one GC pause, at
    whose end the run is freed (see :func:`frees_its_run`): the result
    keeps no reference into it.

    Parameters
    ----------
    config:
        The experiment configuration.
    workload:
        Pre-built workload specification.  When omitted the workload named in
        the configuration is generated from the configuration's seed, so two
        configurations with the same seed and workload name replay *exactly*
        the same submissions — the property the paper relies on when
        comparing FPSMA and EGS.
    """
    tracer = _open_tracer(config)
    try:
        run = SimulationRun.fresh(config, workload=workload, tracer=tracer)
        if tracer is not None:
            tracer.record(
                "run_start",
                label=config.label,
                seed=config.seed,
                time_limit=config.time_limit,
            )
        run.run_to_completion()
        metrics = ExperimentMetrics.from_run(
            run.scheduler, run.multicluster, label=config.label, faults=run.injector
        )
        if tracer is not None:
            tracer.record(
                "run_end",
                t=run.env.now,
                events=run.env.processed_events,
                all_done=run.scheduler.all_done,
                digest=run_digest(metrics.to_dict()),
            )
    finally:
        if tracer is not None:
            tracer.close()
    return ExperimentResult(
        config=config,
        metrics=metrics,
        workload=run.workload,
        simulated_time=run.env.now,
        all_done=run.scheduler.all_done,
        events_processed=run.env.processed_events,
    )
