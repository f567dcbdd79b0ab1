"""Tests of the experiment configuration, workload building and the runner."""

from __future__ import annotations

import pytest

from repro.experiments.setup import (
    DEFAULT_BACKGROUND_PROFILE,
    FIGURE8_BACKGROUND_PROFILE,
    ExperimentConfig,
    SimulationRun,
    build_workload,
    default_background,
    run_experiment,
)
from repro.metrics import run_digest
from repro.sim import RandomStreams


def small_config(**overrides):
    base = ExperimentConfig(
        name="test",
        workload="Wm",
        job_count=12,
        malleability_policy="EGS",
        approach="PRA",
        seed=5,
        poll_interval=15.0,
    )
    return base.with_overrides(**overrides) if overrides else base


def test_config_label_and_overrides():
    config = small_config()
    assert config.label == "EGS/Wm"
    tweaked = config.with_overrides(malleability_policy=None, workload="Wmr")
    assert tweaked.label == "none/Wmr"
    assert config.label == "EGS/Wm"  # original untouched


def test_build_workload_accepts_all_paper_names():
    streams = RandomStreams(1)
    for name, interarrival in (("Wm", 120.0), ("Wmr", 120.0), ("W'm", 30.0), ("W'mr", 30.0)):
        spec = build_workload(small_config(workload=name, job_count=5), streams)
        gap = spec.jobs[1].submit_time - spec.jobs[0].submit_time
        assert gap == pytest.approx(interarrival)
    with pytest.raises(ValueError):
        build_workload(small_config(workload="bogus"), streams)


def test_default_background_profiles():
    assert default_background(0.0) == {}
    uniform = default_background(0.5)
    assert set(uniform) == {"vu", "uva", "delft", "multimedian", "leiden"}
    profile = default_background(None)
    assert set(profile) == set(DEFAULT_BACKGROUND_PROFILE)
    # Heavier clusters get shorter inter-arrival times (more load).
    assert profile["uva"].mean_interarrival < default_background({"uva": 0.3})["uva"].mean_interarrival
    custom = default_background({"delft": 0.4})
    assert set(custom) == {"delft"}
    with pytest.raises(ValueError):
        default_background(1.5)
    assert set(FIGURE8_BACKGROUND_PROFILE) == set(DEFAULT_BACKGROUND_PROFILE)


def test_run_experiment_completes_all_jobs_and_collects_metrics():
    result = run_experiment(small_config())
    assert result.all_done
    assert result.metrics.job_count == 12
    assert result.metrics.unfinished_jobs == 0
    assert result.simulated_time > result.workload.duration
    summary = result.metrics.summary()
    assert summary["mean_execution_time"] > 0
    assert result.label == "EGS/Wm"


def test_run_experiment_is_reproducible_for_a_given_seed():
    first = run_experiment(small_config())
    second = run_experiment(small_config())
    assert [j.name for j in first.metrics.jobs] == [j.name for j in second.metrics.jobs]
    assert first.metrics.summary() == second.metrics.summary()


def test_different_seeds_change_the_workload_mix():
    a = run_experiment(small_config(seed=1, job_count=20))
    b = run_experiment(small_config(seed=2, job_count=20))
    mix_a = sorted(j.profile for j in a.metrics.jobs)
    mix_b = sorted(j.profile for j in b.metrics.jobs)
    assert mix_a != mix_b or a.metrics.summary() != b.metrics.summary()


def test_same_workload_is_replayed_across_policies():
    """The same seed and workload name give both policies the exact same
    submissions — the property the paper's comparisons rely on."""
    fpsma = run_experiment(small_config(malleability_policy="FPSMA"))
    egs = run_experiment(small_config(malleability_policy="EGS"))
    assert [j.name for j in fpsma.workload] == [j.name for j in egs.workload]
    assert [j.submit_time for j in fpsma.workload] == [j.submit_time for j in egs.workload]


def test_run_experiment_without_background_or_malleability():
    config = small_config(
        malleability_policy=None, background_fraction=0.0, job_count=6
    )
    result = run_experiment(config)
    assert result.all_done
    # Without a malleability manager nothing ever grows.
    assert all(j.maximum_allocation == 2 for j in result.metrics.jobs)
    assert result.metrics.total_grow_messages == 0


def test_prebuilt_workload_simulates_like_the_configured_one():
    """Handing in the workload must not change the run's random streams.

    Regression test: the multicluster, the scheduler and the fault injector
    replaced a seed-N stream set with seed 0 while no lane of it had been
    drawn yet (``RandomStreams`` defines ``__len__``, so such a set is
    falsy) — exactly the set a run holds when its workload comes pre-built.
    """
    config = small_config(seed=1, job_count=8, fault_model="fault:exp?mtbf=3600&mttr=600")
    prebuilt = build_workload(config, RandomStreams(config.seed))
    own = run_experiment(config)
    handed_in = run_experiment(config, workload=prebuilt)
    assert run_digest(handed_in.metrics.to_dict()) == run_digest(own.metrics.to_dict())


def test_fresh_run_components_share_the_run_streams():
    config = small_config(seed=3, job_count=4, fault_model="fault:exp?mtbf=3600&mttr=600")
    run = SimulationRun.fresh(config, workload=build_workload(config, RandomStreams(3)))
    assert run.multicluster.streams is run.streams
    assert run.scheduler.streams is run.streams
    assert "faults:victims" in run.streams
