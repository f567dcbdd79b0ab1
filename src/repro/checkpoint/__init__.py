"""Checkpointed simulation state and time-sharded exact replay.

Public surface of the checkpoint subsystem:

* envelopes — :func:`save_checkpoint`, :func:`load_checkpoint`, the
  :data:`CHECKPOINT_FORMAT` schema version and the :class:`CheckpointError`
  hierarchy;
* capture — :func:`capture_state` at a :func:`advance_to_safe_point` safe
  point, with :func:`native_unsupported_reason` describing the native
  envelope and :func:`kernel_fingerprint` / :func:`step_until` as the shared
  kernel-level primitives;
* restore — :func:`restore_run` / :func:`resume_run`, returning a live
  :class:`SimulationRun` that continues byte-identically;
* running — :func:`run_checkpointed` for resumable long runs with periodic
  metric flushes, and :func:`shard_replay` for parallel exact replay of huge
  bursty workloads, both over the run object :class:`SimulationRun`
  (defined in :mod:`repro.experiments.setup`, re-exported here).
"""

from repro.checkpoint.capture import (
    NATIVE_PLACEMENT_POLICIES,
    advance_to_safe_point,
    capture_state,
    kernel_fingerprint,
    native_unsupported_reason,
    step_until,
    workload_digest,
)
from repro.checkpoint.envelope import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointUnsupported,
    RestoreError,
    load_checkpoint,
    save_checkpoint,
    validate_envelope,
)
from repro.checkpoint.restore import restore_run, resume_run
from repro.checkpoint.runner import run_checkpointed
from repro.checkpoint.shard import (
    DEFAULT_MIN_GAP,
    ShardReplayResult,
    ShardWindow,
    plan_windows,
    shard_bench_config,
    shard_replay,
)
from repro.experiments.setup import SimulationRun

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "CheckpointUnsupported",
    "DEFAULT_MIN_GAP",
    "NATIVE_PLACEMENT_POLICIES",
    "RestoreError",
    "ShardReplayResult",
    "ShardWindow",
    "SimulationRun",
    "advance_to_safe_point",
    "capture_state",
    "kernel_fingerprint",
    "load_checkpoint",
    "native_unsupported_reason",
    "plan_windows",
    "restore_run",
    "resume_run",
    "run_checkpointed",
    "save_checkpoint",
    "shard_bench_config",
    "shard_replay",
    "step_until",
    "validate_envelope",
    "workload_digest",
]
