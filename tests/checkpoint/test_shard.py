"""Sharded replay: window planning, exact stitching, fallback repair."""

from __future__ import annotations

import os

import pytest

from repro.checkpoint import (
    CheckpointUnsupported,
    SimulationRun,
    plan_windows,
    shard_bench_config,
    shard_replay,
)
from repro.experiments.scenarios import get_scenario
from repro.workloads.bursts import burst_workload
from repro.workloads.registry import build_named_workload


def _serial_digest(config, workload):
    run = SimulationRun.fresh(
        config, workload=workload, retain_jobs=False, collect_windowed=True
    )
    run.run_to_completion(drain=True)
    assert run.done
    return run.collector.window.digest


# -- planning ----------------------------------------------------------------


def test_plan_windows_cuts_at_gaps():
    workload = burst_workload(100, burst_size=25, gap=900.0)
    windows = plan_windows(workload, min_gap=600.0)
    assert [w.jobs for w in windows] == [25, 25, 25, 25]
    assert [w.index for w in windows] == [0, 1, 2, 3]
    for left, right in zip(windows, windows[1:]):
        assert left.end == right.start
        assert right.first_submit - left.last_submit >= 600.0


def test_plan_windows_single_window_without_gaps():
    workload = burst_workload(50, burst_size=1000)
    assert [w.jobs for w in plan_windows(workload)] == [50]


def test_plan_windows_empty_workload():
    assert plan_windows(burst_workload(0)) == []


@pytest.mark.parametrize("gap", [0.0, -1.0, float("nan")])
def test_plan_windows_rejects_bad_gap(gap):
    # A NaN gap used to pass: every gap comparison is False, so the whole
    # workload replayed as one window.
    with pytest.raises(ValueError, match="min_gap must be > 0"):
        plan_windows(burst_workload(10), min_gap=gap)


# -- exactness ---------------------------------------------------------------


def test_sharded_equals_serial_in_process():
    config = shard_bench_config(600, seed=0)
    workload = burst_workload(600, burst_size=150, gap=900.0)
    reference = _serial_digest(config, workload)
    result = shard_replay(
        config,
        workload=burst_workload(600, burst_size=150, gap=900.0),
        force_sequential=True,
    )
    assert result.all_done
    assert result.fallback_from is None
    assert result.valid_windows == 4
    assert result.metrics.jobs == 600
    assert result.metrics.digest == reference


def test_sharded_equals_serial_process_pool():
    config = shard_bench_config(600, seed=0)
    workload = burst_workload(600, burst_size=150, gap=900.0)
    reference = _serial_digest(config, workload)
    result = shard_replay(
        config,
        workload=burst_workload(600, burst_size=150, gap=900.0),
        workers=2,
    )
    assert result.workers == 2
    assert result.sharded
    assert result.metrics.digest == reference


def test_default_pool_fits_the_cpus_the_process_may_use(monkeypatch):
    import repro.checkpoint.shard as shard

    def no_pool(*args, **kwargs):
        raise AssertionError("a process allowed one CPU started a pool")

    # One CPU in the affinity mask, whatever os.cpu_count() says.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(shard, "ProcessPoolExecutor", no_pool)
    config = shard_bench_config(600, seed=0)
    result = shard_replay(config, workload=burst_workload(600, burst_size=150, gap=900.0))
    assert len(result.windows) == 4
    assert result.workers == 1
    assert result.all_done and result.metrics.jobs == 600


def test_boundary_violation_repaired_exactly():
    # Heavy backlog: each burst's queue outlives the inter-burst gap, so the
    # windows are NOT independent and the planner's assumption fails.
    def make():
        return burst_workload(900, burst_size=450, gap=650.0, interarrival=0.25)

    config = shard_bench_config(900, seed=0)
    reference = _serial_digest(config, make())
    result = shard_replay(config, workload=make(), min_gap=600.0, workers=2)
    assert result.fallback_from is not None
    assert result.all_done
    assert result.metrics.jobs == 900
    assert result.metrics.digest == reference


def test_config_workload_used_when_none_given():
    config = shard_bench_config(90, seed=0)
    result = shard_replay(config)
    assert result.all_done
    assert result.metrics.jobs == 90


def test_unsupported_config_refused():
    config = shard_bench_config(50, seed=0).with_overrides(
        malleability_policy="EGS", workload="Wm"
    )
    with pytest.raises(CheckpointUnsupported):
        shard_replay(config)


# -- the bursty workload -----------------------------------------------------


def test_burst_workload_is_deterministic_and_registered():
    direct = burst_workload(120)
    assert [s.name for s in direct.jobs] == [f"j{i:07d}" for i in range(120)]
    assert all(s.kind.value == "rigid" for s in direct.jobs)
    via_registry = build_named_workload("shard-bursts", job_count=120, rng=None)
    assert [
        (s.submit_time, s.name, s.initial_processors) for s in via_registry.jobs
    ] == [(s.submit_time, s.name, s.initial_processors) for s in direct.jobs]


def test_burst_workload_gap_structure():
    workload = burst_workload(60, burst_size=20, gap=900.0, interarrival=2.0)
    submits = [s.submit_time for s in workload.jobs]
    gaps = [b - a for a, b in zip(submits, submits[1:])]
    assert gaps.count(902.0) == 2  # gap + one interarrival, at each burst seam
    assert all(g == 2.0 for g in gaps if g != 902.0)


# -- scenario / bench config ------------------------------------------------


def test_scenario_base_matches_bench_config():
    """The registered scenario and ``shard_bench_config`` pin the same config."""
    spec = get_scenario("shard-replay")
    expected = shard_bench_config(1234, seed=7)
    _label, config = spec.expand(job_count=1234, seed=7)[0]
    assert config.to_dict() == expected.to_dict()
    assert spec.default_job_count == 500_000


def test_bench_hook_digest_matches_serial():
    config = shard_bench_config(300, seed=0)
    reference = _serial_digest(config, None)
    measured = shard_replay(config)
    assert measured.all_done
    assert measured.metrics.digest == reference
    assert measured.metrics.jobs == 300
