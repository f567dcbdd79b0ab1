"""Time-sharded parallel replay of huge workloads.

Long traces of bursty arrivals (the million-job replay regime) spend most of
their simulated horizon with the system fully drained between bursts.  The
shard engine exploits that: it cuts the workload at submit-time gaps of at
least ``min_gap`` seconds, replays every window as an *independent*
simulation in a worker process, then validates and stitches the windows
deterministically:

* every window keeps its **absolute** submit times, and each worker's KIS
  poll loop is aligned onto the serial run's poll grid (polls at exact
  multiples of the poll interval), so within a window every event instant —
  and therefore every per-job ``(submit, start, finish, allocation)`` tuple —
  is bit-identical to the serial run's;
* a window boundary is *valid* if the previous window finished strictly
  before the next window's first submission (the serial system would have
  been empty, so independence was real, not assumed).  The first violated
  boundary invalidates every later window; those jobs are re-run serially
  in-process — the result is always exact, sharding is only a speed-up;
* per-window :class:`~repro.metrics.windowed.WindowedMetrics` merge
  commutatively, and the merged completion digest equals the serial run's —
  checked in the test suite; ``tests/golden`` pins the digest and the event
  count of a 500k-job replay.

A window's payload carries its slice of the workload's own
:class:`~repro.workloads.spec.JobSpec` objects, and each window's run is
freed when its replay returns (:func:`~repro.experiments.setup.frees_its_run`).
:func:`shard_unsupported_reason` says which configurations have
independent windows.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.checkpoint.envelope import CheckpointUnsupported
from repro.experiments.setup import (
    ExperimentConfig,
    SimulationRun,
    build_workload,
    default_background,
    frees_its_run,
)
from repro.metrics.windowed import WindowedMetrics
from repro.sim.rng import RandomStreams
from repro.workloads.spec import WorkloadSpec

#: Default minimum submit-time gap (seconds) at which the workload is cut.
#: Must exceed the longest job runtime plus scheduling latency so windows
#: usually drain before the next one starts; violations are detected and
#: repaired, not silently absorbed.
DEFAULT_MIN_GAP = 600.0

#: Placement policies whose decisions depend only on the current idle view.
#: (EASY backfilling keeps reservations across events.)
SHARD_PLACEMENT_POLICIES = {"WF", "CF", "CM", "FCM"}


def shard_unsupported_reason(config: ExperimentConfig, workload: WorkloadSpec) -> Optional[str]:
    """Why *config*'s windows cannot be replayed independently, or ``None``.

    Every feature listed keeps state across a drained gap or draws from a
    runtime random stream, so a window replayed on its own would not repeat
    the serial run's draws.
    """
    if config.malleability_policy is not None:
        return "malleable job management keeps reconfiguration state across windows"
    if config.fault_model is not None:
        return "fault injection draws one fault stream over the whole run"
    if config.gram_latency_jitter != 0.0:
        return "GRAM latency jitter draws from a random stream per submission"
    if config.background or default_background(config.background_fraction):
        return "background load draws from per-cluster random streams per local job"
    base_policy = str(config.placement_policy).split("?", 1)[0].upper()
    if base_policy not in SHARD_PLACEMENT_POLICIES:
        return (
            f"placement policy {config.placement_policy!r} retains state across "
            f"events (sharding supports {sorted(SHARD_PLACEMENT_POLICIES)})"
        )
    for spec in workload:
        if spec.kind.value != "rigid":
            return f"workload contains non-rigid job kind {spec.kind.value!r}"
        if not spec.name:
            return (
                "workload contains unnamed job specs (auto-generated names embed "
                "a process-global counter, which differs in each worker)"
            )
    return None


@dataclass(frozen=True)
class ShardWindow:
    """One contiguous slice of the workload, cut at arrival gaps."""

    index: int
    start: int  # first spec index (inclusive)
    end: int  # last spec index (exclusive)
    first_submit: float
    last_submit: float

    @property
    def jobs(self) -> int:
        return self.end - self.start


@dataclass
class ShardReplayResult:
    """Outcome of a sharded replay."""

    windows: List[ShardWindow]
    valid_windows: int
    fallback_from: Optional[int]
    metrics: WindowedMetrics
    events_processed: int
    all_done: bool
    workers: int
    window_results: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def sharded(self) -> bool:
        """Whether any parallel window result was actually used."""
        return self.valid_windows > 0 and len(self.windows) > 1


def plan_windows(workload: WorkloadSpec, *, min_gap: float = DEFAULT_MIN_GAP) -> List[ShardWindow]:
    """Cut *workload* at submit-time gaps of at least *min_gap* seconds."""
    if not min_gap > 0:
        raise ValueError(f"min_gap must be > 0, got {min_gap!r}")
    jobs = workload.jobs
    cuts = [
        index
        for index in range(1, len(jobs))
        if jobs[index].submit_time - jobs[index - 1].submit_time >= min_gap
    ]
    bounds = zip([0] + cuts, cuts + [len(jobs)]) if jobs else ()
    return [
        ShardWindow(
            index=index,
            start=start,
            end=end,
            first_submit=jobs[start].submit_time,
            last_submit=jobs[end - 1].submit_time,
        )
        for index, (start, end) in enumerate(bounds)
    ]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _window_payload(
    config: ExperimentConfig,
    workload: WorkloadSpec,
    start: int,
    end: int,
    index: Optional[int] = None,
) -> Dict[str, Any]:
    """What one window's replay needs: the config and its slice of the specs.

    ``JobSpec`` is frozen and pickling round-trips its floats exactly, so a
    worker replays the serial run's specs themselves.
    """
    return {
        "config": config.to_dict(),
        "name": f"{workload.name}[{start}:{end}]",
        "index": index,
        "start": start,
        "end": end,
        "specs": workload.jobs[start:end],
    }


@frees_its_run
def _replay_window(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Replay one window to completion (runs in a worker process).

    The window keeps its absolute submit times; the KIS poll loop is told to
    take its first poll at the last serial-grid poll instant not after the
    window's first submission, so the kernel jumps over the empty prefix in
    one step while every poll at or after the first arrival lands
    on exactly the serial run's poll instants.  (Poll instants are exact
    integer multiples of the poll interval in both runs, so the alignment is
    bit-exact, not approximate.)
    """
    config = ExperimentConfig.from_dict(payload["config"])
    specs = payload["specs"]
    workload = WorkloadSpec(name=payload["name"], jobs=specs)

    scheduler_extra: Optional[Dict[str, object]] = None
    if specs:
        first_submit = specs[0].submit_time
        grid_steps = math.floor(first_submit / config.poll_interval)
        first_poll = grid_steps * config.poll_interval
        if first_poll > 0.0:
            scheduler_extra = {"kis_first_poll_at": first_poll}

    run = SimulationRun.fresh(
        config, workload=workload, retain_jobs=False, collect_windowed=True,
        scheduler_extra=scheduler_extra,
    )
    run.run_to_completion(drain=True)
    return {
        "index": payload["index"],
        "start": payload["start"],
        "end": payload["end"],
        "window": run.collector.window.to_dict(),
        "all_done": run.done,
        "events": run.env.processed_events,
        "simulated_time": run.env.now,
    }


def shard_replay(
    config: ExperimentConfig,
    *,
    workload: Optional[WorkloadSpec] = None,
    min_gap: float = DEFAULT_MIN_GAP,
    workers: Optional[int] = None,
    force_sequential: bool = False,
) -> ShardReplayResult:
    """Replay *config*'s workload in parallel time shards, exactly.

    Raises :class:`CheckpointUnsupported` when the configuration falls
    outside the shard-equivalence envelope (:func:`shard_unsupported_reason`).
    The result's metrics — including the per-job completion
    digest — equal a serial run's for every input: windows whose
    independence assumption fails are detected and re-run serially.
    """
    if workload is None:
        workload = build_workload(config, RandomStreams(seed=config.seed))
    reason = shard_unsupported_reason(config, workload)
    if reason is not None:
        raise CheckpointUnsupported(
            f"sharded replay is not supported for this configuration: {reason}"
        )
    windows = plan_windows(workload, min_gap=min_gap)
    if not windows:
        return ShardReplayResult(
            windows=[], valid_windows=0, fallback_from=None, metrics=WindowedMetrics(),
            events_processed=0, all_done=True, workers=0,
        )

    payloads = [
        _window_payload(config, workload, window.start, window.end, window.index)
        for window in windows
    ]

    if force_sequential or len(windows) == 1:
        worker_count = 0
        results = [_replay_window(payload) for payload in payloads]
    else:
        # An explicit worker count is honoured as given (tests exercise the
        # process pool on single-core boxes); the default adapts to the CPUs
        # this process may run on.
        if workers is not None:
            worker_count = min(int(workers), len(windows))
        else:
            worker_count = min(4, _usable_cpus(), len(windows))
        worker_count = max(worker_count, 1)
        if worker_count == 1:
            results = [_replay_window(payload) for payload in payloads]
        else:
            with ProcessPoolExecutor(max_workers=worker_count) as executor:
                results = list(executor.map(_replay_window, payloads))

    # Left-to-right validation: window i+1 was simulated assuming everything
    # before it had drained.  A window is valid only if it completed AND
    # finished strictly before its successor's first submission; the first
    # window failing either check, and everything after it, is re-run
    # serially.  A violating window's jobs are the state leaked into the
    # next window, so the serial tail starts with that window itself.
    valid = 0
    fallback_from: Optional[int] = None
    for index, result in enumerate(results):
        if not result["all_done"]:
            fallback_from = index
            break
        if index + 1 < len(windows):
            last_finish = WindowedMetrics.from_dict(result["window"]).last_finish
            if last_finish >= windows[index + 1].first_submit:
                fallback_from = index
                break
        valid += 1

    merged = WindowedMetrics()
    for result in results[:valid]:
        merged.merge(WindowedMetrics.from_dict(result["window"]))
    events = sum(result["events"] for result in results[:valid])
    all_done = True

    if fallback_from is not None:
        # Serial repair: every spec from the first invalid window onward is
        # re-run in-process as one window (exact by construction).
        tail_payload = _window_payload(
            config, workload, windows[fallback_from].start, len(workload.jobs)
        )
        tail_result = _replay_window(tail_payload)
        merged.merge(WindowedMetrics.from_dict(tail_result["window"]))
        events += tail_result["events"]
        all_done = bool(tail_result["all_done"])
        results = results[:valid] + [tail_result]

    return ShardReplayResult(
        windows=windows, valid_windows=valid, fallback_from=fallback_from, metrics=merged,
        events_processed=events, all_done=all_done, workers=worker_count, window_results=results,
    )


def shard_bench_config(job_count: int, seed: int = 0) -> ExperimentConfig:
    """The canonical configuration of the ``shard-replay`` bench scenario.

    Deterministic rigid bursts on an otherwise empty DAS-3 — inside the
    shard-equivalence envelope by construction, and with a time limit that
    accommodates the million-job horizon (the default 500 ks limit would
    truncate it).
    """
    return ExperimentConfig(
        name="shard-replay", workload="shard-bursts", job_count=int(job_count),
        malleability_policy=None, approach="PRA", placement_policy="WF", seed=int(seed),
        gram_latency_jitter=0.0, background_fraction=0.0, time_limit=4.0e9,
    )
