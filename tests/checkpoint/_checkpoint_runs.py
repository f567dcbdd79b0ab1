"""Runs to checkpoint: every swept configuration, and ways to stop a run.

A pickled checkpoint may be taken at any instant, also between two events of
one instant.  :func:`fire_one` advances a run by exactly one event (through
``env.run(until=event)``, which schedules nothing), and :func:`mid_activity`
says whether scheduler work is in flight with an event of the current
instant still pending: a claim unsettled, a GRAM submission between submit
and active, or a job being placed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.scenarios import get_scenario, scenario_names
from repro.experiments.setup import ExperimentConfig, SimulationRun
from repro.koala.job import JobState
from repro.metrics.collector import ExperimentMetrics, run_digest


def configurations(job_count: int) -> List[Tuple[str, ExperimentConfig]]:
    """``(id, config)`` of every runnable scenario's configurations at seed 0."""
    found = []
    for name in scenario_names():
        spec = get_scenario(name)
        if spec.is_static:
            continue
        for label, config in spec.expand(job_count=job_count):
            if config.seed == 0:
                found.append((f"{name}:{label}", config))
    return found


def digest(run: SimulationRun) -> str:
    """The full metrics digest of *run*, as the exact goldens compute it."""
    metrics = ExperimentMetrics.from_run(
        run.scheduler, run.multicluster, label=run.config.label, faults=run.injector
    )
    return run_digest(metrics.to_dict())


def fire_one(env) -> None:
    """Fire the next pending event that succeeded (and any failed ones before it)."""
    for _time, _priority, _eid, event in env.pending_entries():
        if event.ok:
            env.run(until=event)
            return


def mid_activity(run: SimulationRun) -> bool:
    """Whether scheduler work is in flight with an event of this instant pending."""
    if run.env.peek() > run.env.now:
        return False
    scheduler = run.scheduler
    if len(scheduler.ledger):
        return True
    multicluster = run.multicluster
    for name in multicluster.cluster_names:
        if any(job.allocation is None for job in multicluster.gram(name).jobs):
            return True
    return any(runner.job.state is JobState.PLACING for runner in scheduler._runners.values())


def advance_to_activity(run: SimulationRun, fraction: float) -> None:
    """Advance *run* to *fraction* of its submission horizon, then one event at
    a time to the first mid-activity state before the horizon ends (or to the
    horizon's last instant, for a configuration that has none)."""
    horizon = run.workload.duration
    run.env.run(until=fraction * horizon)
    while run.env.peek() < horizon and not mid_activity(run):
        fire_one(run.env)
