"""Integration tests of the malleability manager and the PRA/PWA approaches."""

from __future__ import annotations

import pytest

from repro.apps import gadget2_profile
from repro.cluster import Multicluster
from repro.koala import Job, KoalaScheduler, SchedulerConfig
from repro.policies.registry import build_policy
from repro.malleability import (
    MalleabilityManager,
    PrecedenceToRunningApplications,
    PrecedenceToWaitingApplications,
)
from repro.sim import RandomStreams


def build(env, *, approach="PRA", policy="FPSMA", offer_mode="released", nodes=24, threshold=0):
    streams = RandomStreams(seed=11)
    system = Multicluster(
        env, streams=streams, gram_submission_latency=1.0, gram_recruit_latency=0.1
    )
    system.add_cluster("alpha", nodes)
    scheduler = KoalaScheduler(
        env,
        system,
        SchedulerConfig(
            malleability_policy=policy,
            approach=approach,
            grow_offer_mode=offer_mode,
            grow_threshold=threshold,
            poll_interval=10.0,
            adaptation_point_interval=0.0,
        ),
        streams=streams,
    )
    return system, scheduler


def test_build_approach_by_name():
    assert isinstance(build_policy("approach", "PRA"), PrecedenceToRunningApplications)
    assert isinstance(build_policy("approach", "pwa"), PrecedenceToWaitingApplications)
    with pytest.raises(ValueError):
        build_policy("approach", "xyz")


def test_manager_validation(env):
    system, scheduler = build(env)
    with pytest.raises(ValueError):
        MalleabilityManager(env, scheduler, scheduler.manager.policy, threshold=-1)
    with pytest.raises(ValueError):
        MalleabilityManager(env, scheduler, scheduler.manager.policy, offer_mode="bogus")


def test_released_mode_only_offers_grid_releases(env):
    system, scheduler = build(env, offer_mode="released")
    manager = scheduler.manager
    cluster = system.cluster("alpha")
    # A local (background) release is visible as idle but is not offered.
    local = cluster.allocate(4, owner="bg", kind="local")
    local.release()
    assert manager.released_since_last_trigger("alpha") == 0
    # A grid release is offered.
    grid = cluster.allocate(4, owner="job", kind="grid")
    grid.release()
    assert manager.released_since_last_trigger("alpha") == 4
    # The grow ceiling is still bounded by the effective idle count.
    assert manager.grow_value_for("alpha") == 4


def test_grow_value_respects_threshold_and_idle_ceiling(env):
    system, scheduler = build(env, offer_mode="idle", threshold=5, nodes=16)
    manager = scheduler.manager
    assert manager.grow_value_for("alpha") == 11
    system.cluster("alpha").allocate(14, owner="bg", kind="local")
    assert manager.grow_value_for("alpha") == 0


def test_grow_messages_are_counted_for_the_activity_figure(env):
    system, scheduler = build(env, offer_mode="idle")
    job = Job.malleable(gadget2_profile(), name="grow-me")
    scheduler.submit(job)
    env.run(until=2500)
    manager = scheduler.manager
    assert manager.total_grow_messages >= 1
    times, counts = manager.grow_messages.cumulative()
    assert len(times) == manager.total_grow_messages
    assert counts[-1] == manager.total_grow_messages
    assert manager.operations.total >= manager.grow_messages.total


def test_shrink_potential_counts_only_processors_above_minimum(env):
    system, scheduler = build(env, offer_mode="idle")
    job = Job.malleable(gadget2_profile(), name="big")
    scheduler.submit(job)
    env.run(until=200)  # the job has grown by now
    manager = scheduler.manager
    runner = scheduler.runner_for(job)
    expected = runner.current_allocation - job.minimum_processors
    assert manager.shrink_potential("alpha") == expected
    assert manager.shrink_potential("unknown-cluster") == 0


def test_make_room_shrinks_and_triggers_requeue_scan(env):
    system, scheduler = build(env, approach="PWA", offer_mode="idle", nodes=12)
    first = Job.malleable(gadget2_profile(), name="first")
    scheduler.submit(first)
    env.run(until=150)
    assert scheduler.runner_for(first).current_allocation >= 10

    second = Job.malleable(gadget2_profile(), name="second")
    scheduler.submit(second)
    env.run(until=3000)
    manager = scheduler.manager
    assert manager.total_shrink_messages >= 1
    assert scheduler.all_done
    # Both jobs finished even though the cluster could not hold both at the
    # first job's grown size.
    assert len(scheduler.finished) == 2


def test_make_room_refuses_when_nothing_can_shrink(env):
    system, scheduler = build(env, approach="PWA", offer_mode="released", nodes=6)
    # Fill the cluster with local load so nothing fits and nothing can shrink.
    system.cluster("alpha").allocate(6, owner="bg", kind="local")
    job = Job.malleable(gadget2_profile(), name="stuck")
    scheduler.submit(job)
    env.run(until=100)
    assert scheduler.manager.make_room_for_job(job) is False
    assert scheduler.manager.total_shrink_messages == 0
    assert job.state.value == "queued"


def test_pra_never_shrinks(env):
    system, scheduler = build(env, approach="PRA", offer_mode="idle", nodes=16)
    jobs = [Job.malleable(gadget2_profile(), name=f"j{i}") for i in range(4)]
    for index, job in enumerate(jobs):
        env.timeout(60 * index).callbacks.append(lambda _event, job=job: scheduler.submit(job))
    env.run(until=6000)
    assert scheduler.all_done
    assert scheduler.manager.total_shrink_messages == 0
    assert scheduler.manager.total_grow_messages > 0
