"""Unit tests of the GRAM submission endpoint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, GramEndpoint, GramSubmissionError
from repro.sim import Environment, RandomStreams


def at(env, time, action):
    """Run *action* in a NORMAL event at *time*."""
    env.timeout(time - env.now).callbacks.append(lambda _event: action())


def build(env, nodes=16, latency=5.0, recruit=0.5, rng=None):
    cluster = Cluster(env, "c", nodes)
    endpoint = GramEndpoint(
        env, cluster, submission_latency=latency, recruit_latency=recruit, rng=rng
    )
    return cluster, endpoint


def test_submission_becomes_active_after_latency(env):
    cluster, endpoint = build(env, latency=5.0)
    seen = []
    endpoint.submit("job-1", 4).callbacks.append(
        lambda submission: seen.append(
            (env.now, submission.value.processors, submission.value.active)
        )
    )
    env.run()
    assert seen == [(5.0, 4, True)]
    assert cluster.used_processors == 4
    assert len(endpoint.active_jobs) == 1


def test_submission_fails_when_processors_disappear(env):
    cluster, endpoint = build(env, nodes=4, latency=5.0)
    # Takes the nodes while the GRAM submission is still in flight.
    at(env, 1.0, lambda: cluster.allocate(3, owner="background", kind="local"))
    seen = []

    def settled(submission):
        if submission.ok:
            seen.append(("ok",))
        else:
            assert isinstance(submission.value, GramSubmissionError)
            seen.append(("failed", submission.value.requested, env.now))

    endpoint.submit("job-1", 2).callbacks.append(settled)
    env.run()
    assert seen == [("failed", 2, 5.0)]
    assert cluster.grid_processors == 0


def test_release_returns_processors(env):
    cluster, endpoint = build(env)
    submission = endpoint.submit("job-1", 6)
    at(env, 15, lambda: endpoint.release(submission.value))
    env.run()
    assert cluster.idle_processors == 16
    assert endpoint.active_jobs == []


def test_recruit_requires_an_active_job_and_is_fast(env):
    cluster, endpoint = build(env, latency=4.0, recruit=0.5)
    times = []

    def active(submission):
        times.append(env.now)
        endpoint.recruit(submission.value).callbacks.append(lambda _event: times.append(env.now))

    endpoint.submit("job-1", 1).callbacks.append(active)
    env.run()
    assert times[1] - times[0] == pytest.approx(0.5)


def test_recruit_of_released_job_rejected(env):
    cluster, endpoint = build(env)
    submission = endpoint.submit("job-1", 1)
    env.run()
    endpoint.release(submission.value)
    with pytest.raises(GramSubmissionError):
        endpoint.recruit(submission.value)


def test_latency_jitter_stays_within_bounds():
    env = Environment()
    rng = RandomStreams(3)["gram"]
    cluster, endpoint = build(env, latency=10.0, rng=rng)
    endpoint.latency_jitter = 0.2
    times = []
    for index in range(10):
        endpoint.submit(f"job-{index}", 1).callbacks.append(lambda _event: times.append(env.now))
    env.run()
    assert all(8.0 <= t <= 12.0 for t in times)
    assert len(set(times)) > 1  # jitter actually varies


@pytest.mark.parametrize("jitter", [0.05, 0.2, 0.5, 0.999])
def test_jitter_draws_what_numpy_uniform_draws(jitter):
    """Each jittered latency equals ``latency * (1 + uniform(-j, j))`` drawn
    from an identical stream, and the stream ends in the same state."""
    env = Environment()
    _, endpoint = build(env, rng=np.random.default_rng(17))
    endpoint.latency_jitter = jitter
    reference = np.random.default_rng(17)
    for latency in (5.0, 0.5) * 1500:
        expected = max(0.0, latency * (1.0 + reference.uniform(-jitter, jitter)))
        assert endpoint._jittered(latency) == expected
    assert endpoint._rng.bit_generator.state == reference.bit_generator.state


def test_submission_validation(env):
    cluster, endpoint = build(env)
    with pytest.raises(ValueError):
        endpoint.submit("job", 0)
    with pytest.raises(ValueError):
        GramEndpoint(env, cluster, submission_latency=-1)
    with pytest.raises(ValueError):
        GramEndpoint(env, cluster, latency_jitter=1.5)


def test_failed_submission_does_not_crash_unwaited(env):
    """A refused submission must never abort the simulation, even if the
    caller has not started waiting on it yet (pre-defused failure)."""
    cluster, endpoint = build(env, nodes=1, latency=2.0)
    cluster.allocate(1, owner="taken", kind="local")
    endpoint.submit("job-1", 1)  # nobody ever waits on this event
    env.run()  # must not raise
    assert cluster.grid_processors == 0
