"""Unit tests of the SGE-like local resource manager and background load."""

from __future__ import annotations

import pytest

from repro.cluster import BackgroundLoadGenerator, BackgroundLoadSpec, Cluster, LocalJob, LocalResourceManager
from repro.sim import Environment, RandomStreams


def build(env, nodes=8, backfilling=False):
    cluster = Cluster(env, "c", nodes)
    return cluster, LocalResourceManager(env, cluster, backfilling=backfilling)


def recording(lrm):
    """The list of every job *lrm* is given from now on (the manager and the
    background generators keep counts, not jobs)."""
    jobs = []

    def record(job, submit=lrm.submit):
        jobs.append(job)
        return submit(job)

    lrm.submit = record
    return jobs


def test_local_job_validation():
    with pytest.raises(ValueError):
        LocalJob(processors=0, duration=10)
    with pytest.raises(ValueError):
        LocalJob(processors=2, duration=0)


def test_fcfs_jobs_run_in_submission_order(env):
    cluster, lrm = build(env, nodes=4)
    jobs = [LocalJob(processors=4, duration=10, name=f"j{i}") for i in range(3)]
    for job in jobs:
        lrm.submit(job)
    env.run()
    starts = [job.start_time for job in jobs]
    assert starts == [0, 10, 20]
    assert [job.finish_time for job in jobs] == [10, 20, 30]
    assert lrm.finished_count == 3


def test_head_of_queue_blocks_without_backfilling(env):
    cluster, lrm = build(env, nodes=8, backfilling=False)
    running = LocalJob(processors=6, duration=20, name="running")
    big = LocalJob(processors=8, duration=10, name="big")
    small = LocalJob(processors=2, duration=5, name="small")
    lrm.submit(running)
    lrm.submit(big)
    lrm.submit(small)
    env.run()
    # Plain FCFS: the small job must wait behind the blocked big job.
    assert small.start_time > big.start_time or small.start_time >= 20


def test_backfilling_lets_small_jobs_jump_the_blocked_head(env):
    cluster, lrm = build(env, nodes=8, backfilling=True)
    running = LocalJob(processors=6, duration=20, name="running")
    big = LocalJob(processors=8, duration=10, name="big")
    small = LocalJob(processors=2, duration=5, name="small")
    lrm.submit(running)
    lrm.submit(big)
    lrm.submit(small)
    env.run()
    assert small.start_time == 0  # fits next to the running job immediately
    assert big.start_time >= 20


def test_completion_event_fires_with_the_job(env):
    cluster, lrm = build(env, nodes=4)
    job = LocalJob(processors=2, duration=7)
    seen = []
    lrm.submit(job).callbacks.append(lambda done: seen.append((env.now, done.value.name)))
    env.run()
    assert seen == [(7, job.name)]
    assert job.wait_time == 0


def test_queue_length_reflects_waiting_jobs(env):
    cluster, lrm = build(env, nodes=2)
    lrm.submit(LocalJob(processors=2, duration=50))
    lrm.submit(LocalJob(processors=2, duration=50))
    lrm.submit(LocalJob(processors=2, duration=50))
    env.run(until=1)
    assert lrm.queue_length == 2
    assert cluster.used_processors == 2


# ---------------------------------------------------------------------------
# Background load generator
# ---------------------------------------------------------------------------


def test_background_spec_validation():
    with pytest.raises(ValueError):
        BackgroundLoadSpec(mean_interarrival=0)
    with pytest.raises(ValueError):
        BackgroundLoadSpec(mean_duration=0)
    with pytest.raises(ValueError):
        BackgroundLoadSpec(min_processors=4, max_processors=2)
    assert not BackgroundLoadSpec().enabled
    assert BackgroundLoadSpec(mean_interarrival=60).enabled


def test_background_generator_submits_jobs_with_sizes_in_range(env):
    cluster, lrm = build(env, nodes=64)
    spec = BackgroundLoadSpec(
        mean_interarrival=30.0, mean_duration=100.0, min_processors=2, max_processors=6
    )
    jobs = recording(lrm)
    generator = BackgroundLoadGenerator(env, lrm, spec, RandomStreams(5)["bg"], name="bg")
    env.run(until=3000)
    assert generator.submitted_count == len(jobs) > 10
    assert [job.name for job in jobs[:2]] == ["bg-1", "bg-2"]
    assert all(2 <= job.processors <= 6 for job in jobs)
    assert all(job.duration >= 1.0 for job in jobs)
    # The cluster actually saw load.
    assert cluster.usage_series.time_average(0, 3000) > 0


def test_background_generator_respects_time_window(env):
    cluster, lrm = build(env, nodes=64)
    spec = BackgroundLoadSpec(
        mean_interarrival=20.0, mean_duration=50.0, start_time=100.0, end_time=500.0
    )
    jobs = recording(lrm)
    BackgroundLoadGenerator(env, lrm, spec, RandomStreams(6)["bg"])
    env.run(until=2000)
    assert jobs and all(100.0 <= job.submit_time <= 500.0 for job in jobs)


def test_background_generator_is_reproducible(env):
    def run_once(seed):
        env = Environment()
        cluster = Cluster(env, "c", 64)
        lrm = LocalResourceManager(env, cluster)
        spec = BackgroundLoadSpec(mean_interarrival=25.0, mean_duration=80.0)
        jobs = recording(lrm)
        BackgroundLoadGenerator(env, lrm, spec, RandomStreams(seed)["bg"])
        env.run(until=2000)
        return [(job.submit_time, job.processors) for job in jobs]

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)
