"""Checkpointed simulation state and time-sharded exact replay.

A checkpoint is the pickled :class:`SimulationRun` behind a one-line JSON
header, one capture path for every configuration: a loaded run continues
exactly as the run it was pickled from (:mod:`repro.checkpoint.envelope`,
which also says why only files this program wrote may be loaded).
:func:`run_checkpointed` runs resumable long runs with periodic metric
flushes, and :func:`shard_replay` replays huge bursty workloads in
parallel, exactly.
"""

from repro.checkpoint.envelope import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointUnsupported,
    RestoreError,
    load_checkpoint,
    read_header,
    save_checkpoint,
    workload_digest,
)
from repro.checkpoint.runner import run_checkpointed
from repro.checkpoint.shard import (
    DEFAULT_MIN_GAP,
    ShardReplayResult,
    ShardWindow,
    plan_windows,
    shard_bench_config,
    shard_replay,
    shard_unsupported_reason,
)
from repro.experiments.setup import SimulationRun

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "CheckpointUnsupported",
    "DEFAULT_MIN_GAP",
    "RestoreError",
    "ShardReplayResult",
    "ShardWindow",
    "SimulationRun",
    "load_checkpoint",
    "plan_windows",
    "read_header",
    "run_checkpointed",
    "save_checkpoint",
    "shard_bench_config",
    "shard_replay",
    "shard_unsupported_reason",
    "workload_digest",
]
