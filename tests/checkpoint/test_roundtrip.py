"""Checkpoint/restore byte-identity against uninterrupted serial runs."""

from __future__ import annotations

import pytest

from repro.checkpoint import (
    CheckpointUnsupported,
    RestoreError,
    SimulationRun,
    advance_to_safe_point,
    capture_state,
    native_unsupported_reason,
    restore_run,
    resume_run,
    run_checkpointed,
    step_until,
    workload_digest,
)
from repro.checkpoint.shard import shard_bench_config
from repro.experiments.scenarios import get_scenario
from repro.workloads.bursts import burst_workload

JOBS = 200


def _config():
    return shard_bench_config(JOBS, seed=0)


def _workload():
    # burst_size below the default so a 200-job run spans several bursts.
    return burst_workload(JOBS, burst_size=40, gap=900.0)


def _serial_digest(config, workload=None):
    run = SimulationRun.fresh(
        config, workload=workload, retain_jobs=False, collect_windowed=True
    )
    run.run_to_completion(drain=True)
    assert run.done
    return run.collector.window.digest


@pytest.fixture(scope="module")
def reference_digest():
    return _serial_digest(_config(), _workload())


def test_run_checkpointed_matches_serial(tmp_path, reference_digest):
    out = run_checkpointed(
        _config(),
        checkpoint_every=700.0,
        path=tmp_path / "ckpt.json",
        workload=_workload(),
    )
    assert out["all_done"]
    assert out["checkpoints"] >= 3
    assert out["window"].jobs == JOBS
    assert out["window"].digest == reference_digest


def test_resume_from_every_checkpoint_is_byte_identical(tmp_path, reference_digest):
    out = run_checkpointed(
        _config(),
        checkpoint_every=700.0,
        path=tmp_path / "ckpt.json",
        workload=_workload(),
    )
    assert out["checkpoint_paths"]
    for path in out["checkpoint_paths"]:
        run = resume_run(path, workload=_workload())
        run.run_to_completion(drain=True)
        assert run.done
        assert run.collector.window.digest == reference_digest


def test_restore_refuses_mismatched_workload(tmp_path):
    out = run_checkpointed(
        _config(),
        checkpoint_every=700.0,
        path=tmp_path / "ckpt.json",
        workload=_workload(),
    )
    # The config's default shard-bursts workload has the same job count but
    # different submit times; restoring with it must fail loudly, not
    # produce almost-right metrics.
    with pytest.raises(RestoreError, match="workload"):
        resume_run(out["checkpoint_paths"][0])


def test_resumed_run_can_keep_checkpointing(reference_digest):
    first = run_checkpointed(_config(), checkpoint_every=700.0, workload=_workload())
    assert first["last_checkpoint"] is not None
    resumed = restore_run(first["last_checkpoint"], workload=_workload())
    second = run_checkpointed(
        _config(), checkpoint_every=700.0, workload=_workload(), run=resumed
    )
    assert second["all_done"]
    assert second["window"].digest == reference_digest


def test_recapture_of_restored_run_matches(tmp_path):
    """A restored run is itself checkpointable at the next safe point."""
    out = run_checkpointed(
        _config(),
        checkpoint_every=700.0,
        path=tmp_path / "ckpt.json",
        workload=_workload(),
    )
    run = resume_run(out["checkpoint_paths"][0], workload=_workload())
    advance_to_safe_point(run)
    envelope = capture_state(run, mode="native")
    again = restore_run(envelope, workload=_workload())
    again.run_to_completion(drain=True)
    assert again.done
    assert again.collector.window.digest == _serial_digest(_config(), _workload())


def test_a_restored_application_reports_the_progress_of_the_original():
    """Each running application resumes with the work its recorded
    completion instant leaves, so its live progress matches the original
    run's at the capture instant and later."""
    run = SimulationRun.fresh(
        _config(), workload=_workload(), retain_jobs=False, collect_windowed=True
    )
    step_until(run.env, 100.0)  # inside the first burst
    advance_to_safe_point(run)
    run.scheduler.drain_finished()
    envelope = capture_state(run, mode="native")
    assert envelope["running"]
    restored = restore_run(envelope, workload=_workload())

    def progress(simulation):
        return {
            job.name: simulation.scheduler.runner_for(job).application.remaining_fraction
            for job in simulation.scheduler.running_jobs()
        }

    later = run.env.now + 1.0
    for simulation in (run, restored):
        step_until(simulation.env, later)
    expected = progress(run)
    assert expected and all(0.0 < value < 1.0 for value in expected.values())
    assert progress(restored) == pytest.approx(expected, rel=1e-9)


def test_run_checkpointed_picks_the_capture_mode_from_the_config():
    native = run_checkpointed(_config(), checkpoint_every=700.0, workload=_workload())
    assert native["last_checkpoint"]["mode"] == "native"
    _label, config = get_scenario("figure7").expand(job_count=20)[0]
    replay = run_checkpointed(config, checkpoint_every=600.0)
    assert replay["all_done"]
    assert replay["checkpoints"] > 0
    assert replay["last_checkpoint"]["mode"] == "replay"


def test_native_capture_refused_outside_envelope():
    _label, config = get_scenario("figure7").expand(job_count=10)[0]
    run = SimulationRun.fresh(config, retain_jobs=False, collect_windowed=True)
    assert native_unsupported_reason(config, run.workload) is not None
    step_until(run.env, 500.0)
    advance_to_safe_point(run)
    with pytest.raises(CheckpointUnsupported):
        capture_state(run, mode="native")


@pytest.mark.parametrize("stray", ["lambda", "other_kis_method"])
def test_native_capture_refuses_a_pending_timeout_it_cannot_classify(stray):
    """Only the submitter link, the KIS poll link and a running application's
    completion link are captured; any other pending callback is refused,
    even a method of the KIS itself."""
    run = SimulationRun.fresh(
        _config(), workload=_workload(), retain_jobs=False, collect_windowed=True
    )
    step_until(run.env, 700.0)
    advance_to_safe_point(run)
    run.scheduler.drain_finished()
    assert capture_state(run, mode="native")["intents"]
    kis = run.scheduler.kis
    callback = (lambda _event: None) if stray == "lambda" else kis._first_poll
    run.env.timeout(10.0).callbacks.append(callback)
    with pytest.raises(CheckpointUnsupported, match="calls"):
        capture_state(run, mode="native")


def test_replay_mode_roundtrip_on_malleable_config():
    _label, config = get_scenario("figure7").expand(job_count=20)[0]
    run = SimulationRun.fresh(config, retain_jobs=False, collect_windowed=True)
    step_until(run.env, 2000.0)
    advance_to_safe_point(run)
    envelope = capture_state(run, mode="replay")
    run.run_to_completion(drain=True)
    assert run.done
    restored = restore_run(envelope)
    restored.run_to_completion(drain=True)
    assert restored.done
    assert restored.collector.window.digest == run.collector.window.digest
    assert restored.env.processed_events == run.env.processed_events


def test_workload_digest_is_content_addressed():
    assert workload_digest(_workload()) == workload_digest(_workload())
    other = burst_workload(JOBS, burst_size=41, gap=900.0)
    assert workload_digest(_workload()) != workload_digest(other)
