"""Integration tests of the runners (rigid and malleable) against a small system."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import pytest

from repro.apps import NoReconfigurationCost, ft_profile, gadget2_profile
from repro.cluster import Multicluster
from repro.koala import Job, MalleableRunner, RigidRunner
from repro.koala.claiming import ClaimLedger
from repro.koala.runners import RunnersFramework
from repro.koala.job import JobKind
from repro.sim import RandomStreams


@dataclass
class RecordingCallbacks:
    """A SchedulerCallbacks implementation that just records what happened."""

    started: List[str] = field(default_factory=list)
    finished: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    releases: List[str] = field(default_factory=list)

    def job_started(self, job) -> None:
        self.started.append(job.name)

    def job_finished(self, job, record) -> None:
        self.finished.append(job.name)

    def job_failed(self, job, reason) -> None:
        self.failed.append(job.name)

    def processors_released(self, cluster_name) -> None:
        self.releases.append(cluster_name)


@pytest.fixture
def quick_system(env):
    streams = RandomStreams(seed=7)
    system = Multicluster(
        env, streams=streams, gram_submission_latency=1.0, gram_recruit_latency=0.1
    )
    system.add_cluster("alpha", 32)
    return system


def zero_cost(profile):
    return profile.with_reconfiguration(NoReconfigurationCost())


def operate_at(env, time, operation, outcomes, read=lambda value: value):
    """At *time*, start *operation*; append ``read(value)`` when its event fires."""

    def start(_event):
        operation().callbacks.append(lambda done: outcomes.append(read(done.value)))

    env.timeout(time - env.now).callbacks.append(start)


# ---------------------------------------------------------------------------
# RigidRunner
# ---------------------------------------------------------------------------


def test_rigid_runner_runs_job_to_completion(env, quick_system):
    callbacks = RecordingCallbacks()
    job = Job.rigid(zero_cost(ft_profile()).as_rigid(), processors=2, name="rigid-ft")
    job.submit_time = 0.0
    runner = RigidRunner(env, job, quick_system, callbacks)
    outcome = runner.start("alpha", 2)
    env.run(runner.completed)
    assert outcome.value is True
    assert callbacks.started == ["rigid-ft"] and callbacks.finished == ["rigid-ft"]
    assert job.state.value == "finished"
    # T(2) for FT is 120 s plus the 1-second GRAM submission.
    assert job.execution_time == pytest.approx(120.0)
    assert job.start_time == pytest.approx(1.0, abs=0.5)
    assert quick_system.cluster("alpha").used_processors == 0


def test_rigid_runner_reports_claim_failure(env, quick_system):
    callbacks = RecordingCallbacks()
    cluster = quick_system.cluster("alpha")
    cluster.allocate(31, owner="blocker", kind="local")
    job = Job.rigid(ft_profile().as_rigid(), processors=4, name="unlucky")
    runner = RigidRunner(env, job, quick_system, callbacks)
    ledger = ClaimLedger()
    claim = ledger.reserve("alpha", 4, owner="unlucky")
    outcome = runner.start("alpha", 4, claim=claim, ledger=ledger)
    env.run(until=50)
    assert outcome.value is False
    assert len(ledger) == 0  # the claim was settled even though it failed
    assert callbacks.finished == []
    assert job.state.value == "queued"


def test_rigid_runner_rejects_malleable_jobs(env, quick_system):
    job = Job.malleable(ft_profile())
    runner = RigidRunner(env, job, quick_system, RecordingCallbacks())
    with pytest.raises(ValueError):
        runner.start("alpha", 2)


# ---------------------------------------------------------------------------
# MalleableRunner
# ---------------------------------------------------------------------------


def start_malleable(
    env, system, profile, *, name="m-job", initial=2, callbacks=None, adaptation_point_interval=0.0
):
    callbacks = callbacks or RecordingCallbacks()
    job = Job.malleable(profile, name=name)
    job.submit_time = env.now
    runner = MalleableRunner(
        env, job, system, callbacks, adaptation_point_interval=adaptation_point_interval
    )
    outcome = runner.start("alpha", initial)
    return job, runner, outcome, callbacks


def test_malleable_runner_claims_one_stub_per_processor(env, quick_system):
    job, runner, outcome, callbacks = start_malleable(
        env, quick_system, zero_cost(gadget2_profile()), initial=4
    )
    env.run(until=10)
    assert outcome.value is True
    assert len(runner.gram_jobs) == 4
    assert all(g.processors == 1 for g in runner.gram_jobs)
    assert runner.current_allocation == 4
    env.run(runner.completed)
    assert callbacks.finished == [job.name]
    assert quick_system.cluster("alpha").used_processors == 0


def test_malleable_runner_grow_adds_processors_and_shortens_execution(env, quick_system):
    job, runner, outcome, callbacks = start_malleable(
        env, quick_system, zero_cost(gadget2_profile()), initial=2
    )

    added = []
    operate_at(env, 60, lambda: runner.grow(8), added)
    env.run(runner.completed)
    assert added == [8]
    assert runner.grow_operations == 1
    record = runner.application.record
    assert record.maximum_allocation == 10
    assert record.execution_time < 600.0  # faster than staying on 2 processors


def test_malleable_runner_grow_respects_ft_power_of_two(env, quick_system):
    job, runner, outcome, callbacks = start_malleable(
        env, quick_system, zero_cost(ft_profile()), initial=2, name="ft-m"
    )

    added = []
    operate_at(env, 20, lambda: runner.grow(13), added)  # 2 + 13 = 15 -> FT only uses 8
    env.run(runner.completed)
    assert added == [6]
    assert runner.application.record.maximum_allocation == 8
    # The stubs claimed beyond the accepted size were released voluntarily.
    assert quick_system.cluster("alpha").used_processors == 0


def test_malleable_runner_shrink_releases_processors_after_reconfiguration(env, quick_system):
    job, runner, outcome, callbacks = start_malleable(
        env, quick_system, zero_cost(gadget2_profile()), initial=8
    )
    cluster = quick_system.cluster("alpha")

    outcomes = []
    operate_at(
        env, 60, lambda: runner.shrink(5), outcomes,
        lambda value: (value, cluster.used_processors),
    )
    env.run(runner.completed)
    [(released, used_after)] = outcomes
    assert released == 5
    assert used_after == 3
    assert runner.shrink_operations == 1
    assert "alpha" in callbacks.releases


def test_malleable_runner_shrink_never_goes_below_minimum(env, quick_system):
    job, runner, outcome, callbacks = start_malleable(
        env, quick_system, zero_cost(gadget2_profile()), initial=4
    )

    released = []
    operate_at(env, 30, lambda: runner.shrink(100), released)
    env.run(runner.completed)
    assert released == [2]  # 4 -> 2, the minimum
    assert runner.application.record.allocation_series.values[-1] == 2


def test_a_shrink_and_a_failure_in_one_instant_are_served_in_arrival_order(env, quick_system):
    """Regression: a make-room shrink and a node failure hitting the same job
    in one instant used to crash the run with ``Interrupt('reallocation')``,
    because the second reconfiguration interrupted the application again
    while it waited for its adaptation point.  Now the second request joins
    the queue, and both are served in the order they arrived."""
    job, runner, outcome, callbacks = start_malleable(
        env, quick_system, gadget2_profile(), initial=6, adaptation_point_interval=2.0
    )
    outcomes = []

    def both():
        runner.shrink(2).callbacks.append(lambda done: outcomes.append(("shrink", done.value)))
        runner.survive_failure(1).callbacks.append(
            lambda done: outcomes.append(("survive", done.value))
        )

    env.timeout(10).callbacks.append(lambda _event: both())
    env.run(runner.completed)
    assert sorted(outcomes) == [("shrink", 2), ("survive", 1)]
    record = runner.application.record
    assert [(r.old_allocation, r.new_allocation) for r in record.reconfigurations] == [
        (6, 4),
        (4, 5),
    ]
    assert callbacks.finished == [job.name]


def test_malleable_runner_previews_have_no_side_effects(env, quick_system):
    job, runner, outcome, callbacks = start_malleable(
        env, quick_system, zero_cost(ft_profile()), initial=2, name="ft-preview"
    )
    env.run(until=5)
    assert runner.preview_grow(13) == 6
    assert runner.preview_shrink(1) == 0  # already at the minimum
    assert runner.growable_processors == 30
    assert runner.shrinkable_processors == 0
    env.run(runner.completed)
    assert runner.grow_operations == 0 and runner.shrink_operations == 0


def test_malleable_runner_placement_failure_releases_partial_claims(env, quick_system):
    cluster = quick_system.cluster("alpha")
    cluster.allocate(30, owner="blocker", kind="local")  # only 2 idle
    callbacks = RecordingCallbacks()
    job = Job.malleable(gadget2_profile(), initial_processors=4, name="wont-fit")
    runner = MalleableRunner(env, job, quick_system, callbacks)
    outcome = runner.start("alpha", 4)
    env.run(until=30)
    assert outcome.value is False
    assert cluster.grid_processors == 0  # partial stubs were given back
    assert callbacks.started == []
    assert job.state.value == "queued"


def test_malleable_runner_grow_after_completion_is_harmless(env, quick_system):
    job, runner, outcome, callbacks = start_malleable(
        env, quick_system, zero_cost(ft_profile()), initial=2, name="ft-late"
    )
    env.run(runner.completed)
    done = runner.grow(8)
    env.run(until=env.now + 50)
    assert done.value == 0
    assert quick_system.cluster("alpha").used_processors == 0


def test_runners_framework_selects_runner_class(env, quick_system):
    framework = RunnersFramework(env, quick_system, RecordingCallbacks())
    framework.register_runner_class(JobKind.MALLEABLE, MalleableRunner)
    rigid = framework.create_runner(Job.rigid(ft_profile().as_rigid(), 2))
    malleable = framework.create_runner(Job.malleable(gadget2_profile()))
    assert isinstance(rigid, RigidRunner)
    assert isinstance(malleable, MalleableRunner)
