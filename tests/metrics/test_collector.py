"""Tests of the experiment-metrics collector and the report renderers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import ft_profile, gadget2_profile
from repro.cluster import Multicluster
from repro.koala import Job, KoalaScheduler, SchedulerConfig
from repro.metrics import (
    ExperimentMetrics,
    JobMetrics,
    comparison_table,
    format_table,
    metrics_to_csv,
    summary_table,
)
from repro.metrics.reports import activity_csv, cdf_probe_table, utilization_csv
from repro.sim import RandomStreams


@pytest.fixture
def finished_run(env):
    """A small finished scheduler run with both applications."""
    streams = RandomStreams(seed=21)
    system = Multicluster(env, streams=streams, gram_submission_latency=1.0)
    system.add_cluster("alpha", 32)
    scheduler = KoalaScheduler(
        env,
        system,
        SchedulerConfig(malleability_policy="EGS", approach="PRA", poll_interval=10.0,
                        adaptation_point_interval=0.0),
        streams=streams,
    )

    jobs = [
        Job.malleable(gadget2_profile(), name="g-1"),
        Job.malleable(ft_profile(), name="f-1"),
        Job.rigid(ft_profile().as_rigid(), 2, name="r-1"),
    ]
    for index, job in enumerate(jobs):
        env.timeout(60 * index).callbacks.append(lambda _event, job=job: scheduler.submit(job))
    env.run(until=5000)
    assert scheduler.all_done
    return system, scheduler


def test_job_metrics_derived_quantities():
    job = JobMetrics(
        name="x",
        profile="ft",
        kind="malleable",
        submit_time=10.0,
        start_time=25.0,
        finish_time=145.0,
        average_allocation=4.5,
        maximum_allocation=8,
        grow_count=2,
        shrink_count=1,
    )
    assert job.execution_time == 120.0
    assert job.response_time == 135.0
    assert job.wait_time == 15.0


def test_from_run_collects_every_finished_job(finished_run):
    system, scheduler = finished_run
    metrics = ExperimentMetrics.from_run(scheduler, system, label="unit")
    assert metrics.job_count == 3
    assert metrics.unfinished_jobs == 0
    assert {job.name for job in metrics.jobs} == {"g-1", "f-1", "r-1"}
    assert len(metrics.malleable_jobs) == 2
    assert len(metrics.select(profile="ft")) == 2
    assert len(metrics.select(profile="ft", kind="rigid")) == 1


def test_cdfs_and_summary_are_consistent(finished_run):
    system, scheduler = finished_run
    metrics = ExperimentMetrics.from_run(scheduler, system)
    exec_cdf = metrics.execution_time_cdf()
    assert len(exec_cdf) == 3
    assert exec_cdf.fraction_at_or_below(exec_cdf.maximum) == 1.0
    summary = metrics.summary()
    assert summary["jobs"] == 3
    assert summary["mean_execution_time"] == pytest.approx(exec_cdf.mean)
    assert summary["grow_messages"] == metrics.total_grow_messages
    # Response >= execution for every job.
    assert all(j.response_time >= j.execution_time for j in metrics.jobs)


def test_utilization_and_activity_series(finished_run):
    system, scheduler = finished_run
    metrics = ExperimentMetrics.from_run(scheduler, system)
    xs, ys = metrics.utilization_over(0.0, 1000.0, samples=50)
    assert len(xs) == 50 and len(ys) == 50
    assert ys.max() <= 32
    assert metrics.peak_utilization() > 0
    assert metrics.mean_utilization(0.0, 1000.0) > 0
    times, counts = metrics.cumulative_grow_messages()
    if len(counts):
        assert np.all(np.diff(counts) >= 0)
    op_times, op_counts = metrics.cumulative_operations()
    assert len(op_times) == len(op_counts)
    with pytest.raises(ValueError):
        metrics.utilization_over(10.0, 10.0)


def test_empty_metrics_summary():
    metrics = ExperimentMetrics(
        [],
        utilization=(np.asarray([]), np.asarray([])),
        grow_activity=(np.asarray([]), np.asarray([])),
        shrink_activity=(np.asarray([]), np.asarray([])),
        unfinished_jobs=2,
    )
    summary = metrics.summary()
    assert summary["jobs"] == 0
    assert summary["unfinished"] == 2
    assert metrics.peak_utilization() == 0.0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_format_table_aligns_columns():
    table = format_table(["name", "value"], [["a", 1.23456], ["bbbb", 7]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "1.23" in table and "bbbb" in table


def test_summary_and_comparison_tables(finished_run):
    system, scheduler = finished_run
    metrics = ExperimentMetrics.from_run(scheduler, system, label="run")
    summary = summary_table({"run": metrics}, title="Summary")
    assert "run" in summary and "mean exec (s)" in summary
    comparison = comparison_table({"a": [1.0, 2.0], "b": [3.0, 4.0]}, probes=[10, 20])
    assert "10" in comparison and "4.00" in comparison
    probe_table = cdf_probe_table({"run": metrics}, "execution_time", probes=[100, 1000])
    assert "execution_time" in probe_table
    with pytest.raises(ValueError):
        cdf_probe_table({"run": metrics}, "bogus", probes=[1])


def test_csv_exports(finished_run):
    system, scheduler = finished_run
    metrics = ExperimentMetrics.from_run(scheduler, system, label="run")
    csv = metrics_to_csv(metrics)
    assert csv.count("\n") == 4  # header + 3 jobs
    assert "g-1" in csv
    util = utilization_csv({"run": metrics}, 0.0, 500.0, samples=10)
    assert util.count("\n") == 11
    activity = activity_csv({"run": metrics})
    assert activity.startswith("configuration,time,cumulative_operations")


def test_metrics_json_round_trip(finished_run):
    """`to_dict` -> json -> `from_dict` preserves every figure-facing quantity."""
    import json

    system, scheduler = finished_run
    metrics = ExperimentMetrics.from_run(scheduler, system, label="run")
    data = json.loads(json.dumps(metrics.to_dict()))
    restored = ExperimentMetrics.from_dict(data)

    assert restored.label == metrics.label
    assert restored.unfinished_jobs == metrics.unfinished_jobs
    assert restored.jobs == metrics.jobs  # JobMetrics is a frozen dataclass
    assert restored.summary() == metrics.summary()
    np.testing.assert_array_equal(restored.utilization[0], metrics.utilization[0])
    np.testing.assert_array_equal(restored.utilization[1], metrics.utilization[1])
    np.testing.assert_array_equal(
        restored.cumulative_grow_messages()[1], metrics.cumulative_grow_messages()[1]
    )
    # Serialising the restored object again is byte-identical.
    assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
        metrics.to_dict(), sort_keys=True
    )


def test_job_metrics_dict_round_trip():
    job = JobMetrics(
        name="x",
        profile="ft",
        kind="malleable",
        submit_time=10.0,
        start_time=25.0,
        finish_time=145.0,
        average_allocation=4.5,
        maximum_allocation=8,
        grow_count=2,
        shrink_count=1,
    )
    assert JobMetrics.from_dict(job.to_dict()) == job
