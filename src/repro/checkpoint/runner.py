"""Checkpointed runs: a simulation advanced in checkpoint intervals.

:func:`run_checkpointed` advances a
:class:`~repro.experiments.setup.SimulationRun` in checkpoint intervals,
drains finished jobs into streaming windowed metrics at every boundary (so
memory stays flat at million-job scale), and pickles the run into a
checkpoint file per boundary
(:func:`~repro.checkpoint.envelope.save_checkpoint`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.checkpoint.envelope import save_checkpoint
from repro.experiments.setup import ExperimentConfig, SimulationRun, frees_its_run
from repro.sim.core import Environment
from repro.workloads.spec import WorkloadSpec

# Not called here: perfbench/ledger.py times the system build through this
# module attribute by name, so it stays importable from here.
from repro.experiments.setup import build_system  # noqa: F401


def step_until(env: Environment, until: float) -> None:
    """Advance the kernel to *until*, firing every event scheduled before it.

    ``env.run(until=until)`` under a name of this module, where
    perfbench's ledger times it.  Events at exactly *until* stay pending.
    """
    env.run(until=until)


@frees_its_run
def run_checkpointed(
    config: ExperimentConfig,
    *,
    checkpoint_every: float,
    path: Optional[Union[str, Path]] = None,
    workload: Optional[WorkloadSpec] = None,
    run: Optional[SimulationRun] = None,
) -> Dict[str, Any]:
    """Run *config* to completion, checkpointing every *checkpoint_every* s.

    Finished jobs are drained into a streaming
    :class:`~repro.metrics.windowed.WindowedMetrics` window at every
    checkpoint boundary, so the resident set stays flat however long the run
    is.  With *path*, the run is pickled at every boundary it has not
    finished by into a numbered file derived from *path* (``path``'s stem
    gains a ``-NNNN`` index); without it, nothing is written.

    Pass a loaded *run* (from :func:`repro.checkpoint.envelope.load_checkpoint`)
    to resume a previous invocation; its configuration must match *config*.
    The call is one GC pause (:func:`~repro.experiments.setup.frees_its_run`)
    that frees a run built here; a caller that loads many runs loads each
    inside a pause of its own, as the daemon's ``checkpointed`` worker does.

    Returns a summary dict with the keys ``config``, ``window`` (the merged
    :class:`~repro.metrics.windowed.WindowedMetrics`), ``all_done``,
    ``simulated_time``, ``events_processed`` and ``checkpoint_paths``.  It
    holds no reference to the run.
    """
    if not checkpoint_every > 0:
        raise ValueError(f"checkpoint_every must be > 0, got {checkpoint_every!r}")
    if run is None:
        run = SimulationRun.fresh(
            config, workload=workload, retain_jobs=False, collect_windowed=True
        )
    elif run.collector is None:
        raise ValueError("a resumed run must carry a windowed collector")
    env = run.env
    limit = float(config.time_limit)
    interval = float(checkpoint_every)
    paths: List[str] = []
    path = Path(path) if path is not None else None

    while not run.done and env.now < limit and env.peek() <= limit:
        step_until(env, min(env.now + interval, limit))
        run.scheduler.drain_finished()
        if path is not None and not run.done and env.now < limit:
            target = path.with_name(f"{path.stem}-{len(paths):04d}{path.suffix or '.ckpt'}")
            save_checkpoint(run, target)
            paths.append(str(target))

    return {
        "config": config,
        "window": run.collector.window,
        "all_done": run.done,
        "simulated_time": env.now,
        "events_processed": env.processed_events,
        "checkpoint_paths": paths,
    }
