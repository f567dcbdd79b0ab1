"""Same-instant ordering of the runners, DYNACO and the application runtime.

The runners, DYNACO and the application are callback chains whose first
hop is an URGENT relay, and an application that a request interrupts
resumes in one too.  Those hops decide which of two tied actions wins, and
``test_reference_equivalence`` checks most of them against the former
process-based classes.  The property runs with ``adaptation_point_interval``
at 0 and submits to GRAM only through runners, so the ties below never
arise there.  Each test builds one and checks only behaviour: times,
allocations and submission outcomes.
"""

from __future__ import annotations

from repro.apps import (
    ApplicationProfile,
    NoReconfigurationCost,
    PowerLawSpeedup,
    RunningApplication,
)
from repro.cluster import Multicluster
from repro.dynaco import (
    AfpacExecutor,
    Dynaco,
    MalleabilityDecision,
    MalleabilityPlanner,
    SchedulerFrontendMonitor,
)
from repro.koala import Job, MalleableRunner, RigidRunner
from repro.sim import Environment, RandomStreams
from repro.sim.events import URGENT

#: T(n) = 100 / n, no reconfiguration cost.
PROFILE = ApplicationProfile(
    name="linear",
    speedup=PowerLawSpeedup(sequential_time=100.0, alpha=1.0),
    reconfiguration=NoReconfigurationCost(),
    default_minimum=1,
    default_maximum=16,
)


def at(env, time, action):
    """Run *action* in a NORMAL event at *time*."""
    env.timeout(time - env.now).callbacks.append(lambda _event: action())


def urgent(env, action):
    """Run *action* in an URGENT event queued now."""
    env.relay(lambda _event: action(), URGENT)


class Callbacks:
    """Scheduler callbacks that ignore everything."""

    def job_started(self, job):
        pass

    def job_finished(self, job, record):
        pass

    def job_failed(self, job, reason):
        pass

    def processors_released(self, cluster_name):
        pass


def gated_system(env):
    """One 8-node cluster behind a one-slot GRAM gatekeeper, 1 s latency."""
    system = Multicluster(
        env,
        streams=RandomStreams(5),
        gram_submission_latency=1.0,
        gram_recruit_latency=0.0,
        gram_latency_jitter=0.0,
        gram_concurrency=1,
    )
    system.add_cluster("alpha", 8)
    return system


def settle_times(env, outcomes, name, submission):
    submission.callbacks.append(lambda _event: outcomes.append((env.now, name)))


# ---------------------------------------------------------------------------
# The application runtime
# ---------------------------------------------------------------------------


def test_an_application_begins_one_urgent_hop_after_its_start():
    """The start relay runs behind URGENT work queued before the start and
    ahead of every NORMAL event of the instant, even one queued earlier."""
    env = Environment()
    app = RunningApplication(env, PROFILE, 2)
    seen = []
    urgent(env, lambda: seen.append(("urgent before", app.is_running)))
    at(env, 0.0, lambda: seen.append(("normal before", app.is_running)))
    app.start()
    urgent(env, lambda: seen.append(("urgent after", app.is_running)))
    env.run(app.completed)
    assert seen == [
        ("urgent before", False),
        ("urgent after", True),
        ("normal before", True),
    ]
    assert app.record.start_time == 0.0 and app.record.finish_time == 50.0


def test_a_request_in_the_instant_the_computation_ends_is_flushed_at_once():
    """A request made by a NORMAL event queued ahead of the completion
    timeout interrupts the application, which resumes in an URGENT hop,
    finds no work left and finishes there: the next NORMAL event of the
    instant already sees it finished, and the request is acknowledged with
    the old size instead of being served."""
    env = Environment()
    app = RunningApplication(env, PROFILE, 2, adaptation_point_interval=0.0)
    acks = []
    seen = []
    # Both are queued before the start, so they precede the completion
    # timeout at t=50 (T(2) = 50).
    at(env, 50.0, lambda: app.set_allocation(4).callbacks.append(
        lambda ack: acks.append((env.now, ack.value))
    ))
    at(env, 50.0, lambda: seen.append(app.is_finished))
    app.start()
    env.run()
    assert seen == [True]
    assert acks == [(50.0, 2)]
    assert app.record.finish_time == 50.0
    assert app.record.reconfigurations == []


def test_an_adaptation_point_wait_that_outlasts_the_work_ends_the_run():
    """A request served with work left for less than the adaptation-point
    wait: the wait is cut at the end of the work, the application finishes
    in that instant, and the request is acknowledged with the old size."""
    env = Environment()
    app = RunningApplication(env, PROFILE, 2, adaptation_point_interval=20.0)
    acks = []
    at(env, 45.0, lambda: app.set_allocation(4).callbacks.append(
        lambda ack: acks.append((env.now, ack.value))
    ))
    app.start()
    env.run()
    assert acks == [(50.0, 2)]
    assert app.record.finish_time == 50.0
    assert app.record.reconfigurations == []


# ---------------------------------------------------------------------------
# DYNACO
# ---------------------------------------------------------------------------


def test_dynaco_executes_in_an_urgent_hop_ahead_of_the_instants_normal_events():
    """With no adaptation-point wait and no cost, an adaptation requested by
    a NORMAL event is executed and adopted in URGENT hops, so a NORMAL
    event queued behind the request in the same instant sees the new size."""
    env = Environment()
    app = RunningApplication(env, PROFILE, 2, adaptation_point_interval=0.0).start()
    monitor = SchedulerFrontendMonitor()
    Dynaco(
        env,
        decision=MalleabilityDecision(1, 16),
        planner=MalleabilityPlanner(),
        executor=AfpacExecutor(env, app),
        monitor=monitor,
    )
    seen = []
    at(env, 10.0, lambda: monitor.on_grow_message(env.now, 6, app.allocation))
    at(env, 10.0, lambda: seen.append(app.allocation))
    env.run(app.completed)
    assert seen == [8]
    assert [(r.time, r.new_allocation) for r in app.record.reconfigurations] == [(10.0, 8)]


# ---------------------------------------------------------------------------
# The runners
# ---------------------------------------------------------------------------


def test_a_rigid_runner_submits_one_urgent_hop_after_its_start():
    """A runner started in a callback submits to GRAM behind a submission
    made later in the same callback, and ahead of one made by a NORMAL
    event queued before the start."""
    env = Environment()
    system = gated_system(env)
    job = Job.rigid(PROFILE.as_rigid(), 2, name="rigid")
    runner = RigidRunner(env, job, system, Callbacks())
    outcomes = []
    endpoint = system.gram("alpha")
    at(env, 0.0, lambda: settle_times(env, outcomes, "normal", endpoint.submit("normal", 2)))
    runner.start("alpha", 2).callbacks.append(lambda _event: outcomes.append((env.now, "rigid")))
    settle_times(env, outcomes, "direct", endpoint.submit("direct", 2))
    env.run(until=5)
    assert outcomes == [(1.0, "direct"), (2.0, "rigid"), (3.0, "normal")]


def test_a_malleable_runner_claims_its_stubs_one_urgent_hop_after_its_start():
    """All stubs of a start are submitted in the start relay: behind a
    submission made later in the calling callback, ahead of one made by a
    NORMAL event queued before the start."""
    env = Environment()
    system = gated_system(env)
    job = Job.malleable(PROFILE, initial_processors=2, minimum=1, maximum=8, name="m")
    runner = MalleableRunner(env, job, system, Callbacks(), adaptation_point_interval=0.0)
    outcomes = []
    endpoint = system.gram("alpha")
    at(env, 0.0, lambda: settle_times(env, outcomes, "normal", endpoint.submit("normal")))
    runner.start("alpha", 2).callbacks.append(lambda _event: outcomes.append((env.now, "m")))
    settle_times(env, outcomes, "direct", endpoint.submit("direct"))
    env.run(until=10)
    assert outcomes == [(1.0, "direct"), (3.0, "m"), (4.0, "normal")]


def test_a_grow_claims_its_stubs_one_urgent_hop_after_the_offer():
    """A grow offered in a callback claims behind a submission made later in
    that callback, and ahead of one made by a NORMAL event the callback
    queued before the offer; its stubs are recruited, then adopted, in turn."""
    env = Environment()
    system = gated_system(env)
    job = Job.malleable(PROFILE, initial_processors=1, minimum=1, maximum=8, name="m")
    runner = MalleableRunner(env, job, system, Callbacks(), adaptation_point_interval=0.0)
    runner.start("alpha", 1)
    outcomes = []
    endpoint = system.gram("alpha")

    def offer():
        at(env, env.now, lambda: settle_times(env, outcomes, "normal", endpoint.submit("normal")))
        runner.grow(2).callbacks.append(
            lambda done: outcomes.append((env.now, "grow", done.value))
        )
        settle_times(env, outcomes, "direct", endpoint.submit("direct"))

    at(env, 5.0, offer)
    env.run(runner.completed)
    assert outcomes == [(6.0, "direct"), (8.0, "grow", 2), (9.0, "normal")]
    assert [(r.time, r.new_allocation) for r in runner.application.record.reconfigurations] == [
        (8.0, 3)
    ]


def test_a_shrink_and_a_failure_survival_adapt_in_urgent_hops():
    """With no adaptation-point wait and no cost, a shrink and a failure
    survival each reach the application in URGENT hops: a NORMAL event
    queued behind the call in the same instant sees the smaller size."""
    env = Environment()
    system = gated_system(env)
    job = Job.malleable(PROFILE, initial_processors=6, minimum=1, maximum=8, name="m")
    runner = MalleableRunner(env, job, system, Callbacks(), adaptation_point_interval=0.0)
    runner.start("alpha", 6)
    seen = []
    at(env, 10.0, lambda: runner.shrink(2))
    at(env, 10.0, lambda: seen.append(runner.application.allocation))
    at(env, 12.0, lambda: runner.survive_failure(1))
    at(env, 12.0, lambda: seen.append(runner.application.allocation))
    env.run(runner.completed)
    assert seen == [4, 3]
    assert [(r.time, r.new_allocation) for r in runner.application.record.reconfigurations] == [
        (10.0, 4),
        (12.0, 3),
    ]
