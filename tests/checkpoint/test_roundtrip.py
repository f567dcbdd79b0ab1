"""A pickled checkpoint resumes to exactly the uninterrupted run."""

from __future__ import annotations

import pytest

from repro.checkpoint import (
    RestoreError,
    SimulationRun,
    load_checkpoint,
    read_header,
    run_checkpointed,
    save_checkpoint,
    workload_digest,
)
from repro.checkpoint.shard import shard_bench_config
from repro.experiments.scenarios import get_scenario
from repro.workloads.bursts import burst_workload

from _checkpoint_runs import advance_to_activity, configurations, digest, mid_activity

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


CONFIGURATIONS = configurations(20)


def test_every_swept_configuration_is_counted():
    # 17 runnable scenarios; the tournament's 24 configurations span 3 seeds.
    assert len(CONFIGURATIONS) == 65


@pytest.mark.parametrize(
    "config", [config for _id, config in CONFIGURATIONS], ids=[i for i, _ in CONFIGURATIONS]
)
def test_every_configuration_resumes_exactly_from_mid_activity(tmp_path, config):
    """Pickled while a claim, a GRAM submission or a placement is in flight,
    with an event of the current instant pending, the loaded run ends with
    the straight run's digest and event count."""
    run = SimulationRun.fresh(config)
    advance_to_activity(run, 0.5)
    assert mid_activity(run)
    save_checkpoint(run, tmp_path / "run.ckpt")
    run.run_to_completion()
    resumed = load_checkpoint(tmp_path / "run.ckpt")
    resumed.run_to_completion()
    assert resumed.env.processed_events == run.env.processed_events
    assert digest(resumed) == digest(run)


def test_run_checkpointed_matches_serial(tmp_path, reference_digest):
    out = run_checkpointed(
        _config(),
        checkpoint_every=700.0,
        path=tmp_path / "ckpt.ckpt",
        workload=_workload(),
    )
    assert out["all_done"]
    assert len(out["checkpoint_paths"]) >= 3
    assert out["window"].jobs == JOBS
    assert out["window"].digest == reference_digest


def test_resume_from_every_checkpoint_is_byte_identical(tmp_path, reference_digest):
    out = run_checkpointed(
        _config(),
        checkpoint_every=700.0,
        path=tmp_path / "ckpt.ckpt",
        workload=_workload(),
    )
    assert out["checkpoint_paths"]
    for path in out["checkpoint_paths"]:
        run = load_checkpoint(path, workload=_workload())
        run.run_to_completion(drain=True)
        assert run.done
        assert run.collector.window.digest == reference_digest


def test_restore_refuses_mismatched_workload(tmp_path):
    out = run_checkpointed(
        _config(),
        checkpoint_every=700.0,
        path=tmp_path / "ckpt.ckpt",
        workload=_workload(),
    )
    # The config's default shard-bursts workload has the same job count but
    # different submit times; loading with it must fail loudly, not
    # produce almost-right metrics.
    with pytest.raises(RestoreError, match="workload"):
        load_checkpoint(out["checkpoint_paths"][0])


def test_resumed_run_can_keep_checkpointing(tmp_path, reference_digest):
    first = run_checkpointed(
        _config(), checkpoint_every=700.0, path=tmp_path / "a.ckpt", workload=_workload()
    )
    resumed = load_checkpoint(first["checkpoint_paths"][-1], workload=_workload())
    second = run_checkpointed(
        _config(),
        checkpoint_every=700.0,
        path=tmp_path / "b.ckpt",
        workload=_workload(),
        run=resumed,
    )
    assert second["all_done"]
    assert second["window"].digest == reference_digest


def test_a_loaded_run_checkpoints_again(tmp_path):
    _label, config = get_scenario("figure7").expand(job_count=20)[0]
    run = SimulationRun.fresh(config)
    run.env.run(until=0.3 * run.workload.duration)
    save_checkpoint(run, tmp_path / "first.ckpt")
    again = load_checkpoint(tmp_path / "first.ckpt")
    again.env.run(until=0.6 * run.workload.duration)
    save_checkpoint(again, tmp_path / "second.ckpt")
    assert float.fromhex(read_header(tmp_path / "second.ckpt")["time"]) == again.env.now
    last = load_checkpoint(tmp_path / "second.ckpt")
    for simulation in (run, last):
        simulation.run_to_completion()
    assert last.env.processed_events == run.env.processed_events
    assert digest(last) == digest(run)


def test_workload_digest_is_content_addressed():
    assert workload_digest(_workload()) == workload_digest(_workload())
    other = burst_workload(JOBS, burst_size=41, gap=900.0)
    assert workload_digest(_workload()) != workload_digest(other)
