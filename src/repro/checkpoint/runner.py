"""Checkpointed runs: a simulation advanced in checkpoint intervals.

:func:`run_checkpointed` runs resumable long simulations: it advances a
:class:`~repro.experiments.setup.SimulationRun` in checkpoint intervals,
drains finished jobs into streaming windowed metrics at every boundary (so
memory stays flat at million-job scale), and persists a checkpoint per
boundary: native where
:func:`~repro.checkpoint.capture.native_unsupported_reason` allows it,
replay otherwise.  The run object itself lives in
:mod:`repro.experiments.setup`, beside
:func:`~repro.experiments.setup.run_experiment`, which builds and advances
its runs the same way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.checkpoint.capture import (
    advance_to_safe_point,
    capture_state,
    native_unsupported_reason,
    step_until,
)
from repro.checkpoint.envelope import save_checkpoint
from repro.experiments.setup import ExperimentConfig, SimulationRun, frees_its_run
from repro.metrics.windowed import WindowedMetrics
from repro.workloads.spec import WorkloadSpec

# Not called here: perfbench/ledger.py times the system build through this
# module attribute by name, so it stays importable from here.
from repro.experiments.setup import build_system  # noqa: F401


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
    is.  Checkpoints are persisted as numbered files derived from *path*
    (``path``'s stem gains a ``-NNNN`` index per boundary); without it, the
    envelopes are only returned.
    The capture mode follows the configuration: native when
    :func:`~repro.checkpoint.capture.native_unsupported_reason` finds
    nothing against the run's config and workload, replay otherwise (every
    malleable, jittered, background-loaded or fault-injected run of the
    paper).

    Pass a restored *run* (from :func:`repro.checkpoint.restore.restore_run`)
    to resume a previous invocation; its configuration must match *config*.
    The whole call is one GC pause (:func:`~repro.experiments.setup.frees_its_run`),
    and a run built here is freed when it ends.  A caller that passes *run*
    still holds it then, so a caller that restores many runs restores each
    inside a pause of its own, as the daemon's ``checkpointed`` worker does.

    Returns a summary dict with the keys ``config``, ``window`` (the merged
    :class:`~repro.metrics.windowed.WindowedMetrics`), ``all_done``,
    ``simulated_time``, ``events_processed``, ``checkpoint_paths``,
    ``checkpoints`` (the number captured) and ``last_checkpoint`` (the last
    envelope, or ``None``).  It holds no reference to the run.
    """
    if not checkpoint_every > 0:
        raise ValueError(f"checkpoint_every must be > 0, got {checkpoint_every!r}")
    if run is None:
        run = SimulationRun.fresh(
            config, workload=workload, retain_jobs=False, collect_windowed=True
        )
    elif run.collector is None:
        raise ValueError("a resumed run must carry a windowed collector")
    mode = "native" if native_unsupported_reason(config, run.workload) is None else "replay"
    env = run.env
    limit = float(config.time_limit)
    interval = float(checkpoint_every)
    boundary = env.now + interval
    paths: List[str] = []
    last_envelope: Optional[Dict[str, Any]] = None
    path = Path(path) if path is not None else None
    file_index = 0
    captured = 0

    while not run.done:
        if env.now >= limit or env.peek() > limit:
            break
        step_until(env, min(boundary, limit))
        run.scheduler.drain_finished()
        if run.done or env.now >= limit:
            break
        advance_to_safe_point(run, limit=limit)
        run.scheduler.drain_finished()
        # The next boundary is one interval past the actual capture
        # instant (the safe point may lie well past the nominal one).
        boundary = env.now + interval
        if run.done:
            break
        last_envelope = capture_state(run, mode=mode)
        captured += 1
        if path is not None:
            suffix = path.suffix or ".json"
            target = path.with_name(f"{path.stem}-{file_index:04d}{suffix}")
            save_checkpoint(last_envelope, target)
            paths.append(str(target))
            file_index += 1
    run.scheduler.drain_finished()

    window = run.collector.window if run.collector is not None else WindowedMetrics()
    return {
        "config": config,
        "window": window,
        "all_done": run.done,
        "simulated_time": env.now,
        "events_processed": env.processed_events,
        "checkpoint_paths": paths,
        "checkpoints": captured,
        "last_checkpoint": last_envelope,
    }
