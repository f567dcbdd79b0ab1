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

Sharding shares the native-capture support envelope
(:func:`~repro.checkpoint.capture.native_unsupported_reason`): the
window-equivalence argument needs runs that draw nothing from runtime random
streams and keep no cross-window scheduler state.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.checkpoint.capture import native_unsupported_reason
from repro.checkpoint.envelope import CheckpointUnsupported
from repro.experiments.setup import ExperimentConfig, SimulationRun, build_workload
from repro.koala.job import JobKind
from repro.metrics.windowed import WindowedMetrics
from repro.sim.rng import RandomStreams
from repro.workloads.spec import JobSpec, WorkloadSpec

#: Default minimum submit-time gap (seconds) at which the workload is cut.
#: Must exceed the longest job runtime plus scheduling latency so windows
#: usually drain before the next one starts; violations are detected and
#: repaired, not silently absorbed.
DEFAULT_MIN_GAP = 600.0


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
    if not jobs:
        return []
    windows: List[ShardWindow] = []
    start = 0
    for index in range(1, len(jobs)):
        if jobs[index].submit_time - jobs[index - 1].submit_time >= min_gap:
            windows.append(
                ShardWindow(
                    index=len(windows),
                    start=start,
                    end=index,
                    first_submit=jobs[start].submit_time,
                    last_submit=jobs[index - 1].submit_time,
                )
            )
            start = index
    windows.append(
        ShardWindow(
            index=len(windows),
            start=start,
            end=len(jobs),
            first_submit=jobs[start].submit_time,
            last_submit=jobs[-1].submit_time,
        )
    )
    return windows


def _spec_dict(spec: JobSpec) -> Dict[str, Any]:
    """Exact (hex-float) wire form of one job spec for worker payloads."""
    return {
        "submit": float(spec.submit_time).hex(),
        "profile": spec.profile_name,
        "kind": spec.kind.value,
        "initial": int(spec.initial_processors),
        "min": int(spec.minimum_processors),
        "max": None if spec.maximum_processors is None else int(spec.maximum_processors),
        "name": spec.name,
    }


def _spec_from_dict(data: Dict[str, Any]) -> JobSpec:
    return JobSpec(
        submit_time=float.fromhex(data["submit"]),
        profile_name=data["profile"],
        kind=JobKind(data["kind"]),
        initial_processors=int(data["initial"]),
        minimum_processors=int(data["min"]),
        maximum_processors=None if data["max"] is None else int(data["max"]),
        name=data["name"],
    )


def _window_payload(
    config: ExperimentConfig, workload: WorkloadSpec, window: ShardWindow
) -> Dict[str, Any]:
    return {
        "config": config.to_dict(),
        "name": f"{workload.name}[{window.start}:{window.end}]",
        "start": window.start,
        "end": window.end,
        "specs": [_spec_dict(spec) for spec in workload.jobs[window.start : window.end]],
    }


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
    specs = [_spec_from_dict(data) for data in payload["specs"]]
    workload = WorkloadSpec(name=payload["name"], jobs=specs)

    scheduler_extra: Optional[Dict[str, object]] = None
    if specs:
        first_submit = specs[0].submit_time
        grid_steps = math.floor(first_submit / config.poll_interval)
        first_poll = grid_steps * config.poll_interval
        if first_poll > 0.0:
            scheduler_extra = {"kis_first_poll_at": first_poll}

    run = SimulationRun.fresh(
        config,
        workload=workload,
        retain_jobs=False,
        collect_windowed=True,
        scheduler_extra=scheduler_extra,
    )
    run.run_to_completion(drain=True)
    return {
        "index": payload.get("index"),
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
    outside the shard-equivalence envelope (same envelope as native
    checkpoints).  The result's metrics — including the per-job completion
    digest — equal a serial run's for every input: windows whose
    independence assumption fails are detected and re-run serially.
    """
    if workload is None:
        workload = build_workload(config, RandomStreams(seed=config.seed))
    reason = native_unsupported_reason(config, workload)
    if reason is not None:
        raise CheckpointUnsupported(
            f"sharded replay is not supported for this configuration: {reason}"
        )
    windows = plan_windows(workload, min_gap=min_gap)
    if not windows:
        return ShardReplayResult(
            windows=[],
            valid_windows=0,
            fallback_from=None,
            metrics=WindowedMetrics(),
            events_processed=0,
            all_done=True,
            workers=0,
        )

    payloads = [_window_payload(config, workload, window) for window in windows]
    for window, payload in zip(windows, payloads):
        payload["index"] = window.index

    if force_sequential or len(windows) == 1:
        worker_count = 0
        results = [_replay_window(payload) for payload in payloads]
    else:
        # An explicit worker count is honoured as given (tests exercise the
        # process pool on single-core boxes); the default adapts to the host.
        if workers is not None:
            worker_count = min(int(workers), len(windows))
        else:
            worker_count = min(4, os.cpu_count() or 1, len(windows))
        worker_count = max(worker_count, 1)
        if worker_count == 1:
            results = [_replay_window(payload) for payload in payloads]
        else:
            with ProcessPoolExecutor(max_workers=worker_count) as executor:
                results = list(executor.map(_replay_window, payloads))

    # Left-to-right validation: window i+1 was simulated under the assumption
    # that everything before it had drained.  A window counts as valid only
    # if it completed AND finished strictly before its successor's first
    # submission; the first window failing either check — and everything
    # after it — is re-run serially.  On a boundary violation the violating
    # window itself is what the serial tail must start from: its jobs are
    # the leaked state the next window's entry depends on, so it is dropped
    # from the merged prefix and re-simulated (identically — its own entry
    # was clean) as the head of the tail.
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
        tail_start = windows[fallback_from].start
        tail_payload = {
            "config": config.to_dict(),
            "name": f"{workload.name}[{tail_start}:]",
            "start": tail_start,
            "end": len(workload.jobs),
            "index": None,
            "specs": [_spec_dict(spec) for spec in workload.jobs[tail_start:]],
        }
        tail_result = _replay_window(tail_payload)
        merged.merge(WindowedMetrics.from_dict(tail_result["window"]))
        events += tail_result["events"]
        all_done = bool(tail_result["all_done"])
        results = results[:valid] + [tail_result]

    return ShardReplayResult(
        windows=windows,
        valid_windows=valid,
        fallback_from=fallback_from,
        metrics=merged,
        events_processed=events,
        all_done=all_done,
        workers=worker_count,
        window_results=results,
    )


def shard_bench_config(job_count: int, seed: int = 0) -> ExperimentConfig:
    """The canonical configuration of the ``shard-replay`` bench scenario.

    Deterministic rigid bursts on an otherwise empty DAS-3 — inside the
    shard-equivalence envelope by construction, and with a time limit that
    accommodates the million-job horizon (the default 500 ks limit would
    truncate it).
    """
    return ExperimentConfig(
        name="shard-replay",
        workload="shard-bursts",
        job_count=int(job_count),
        malleability_policy=None,
        approach="PRA",
        placement_policy="WF",
        seed=int(seed),
        gram_latency_jitter=0.0,
        background_fraction=0.0,
        time_limit=4.0e9,
    )
