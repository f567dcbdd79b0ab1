"""Same-instant ordering of GRAM, the local resource manager and background load.

Events at one simulated time fire in ``(priority, insertion id)`` order, so
*where* in an instant the GRAM endpoint grants a gatekeeper slot, draws a
latency or frees a slot, where the local resource manager dispatches or
releases a killed job, and where a background stream draws and submits,
decides which of two tied actions wins.  Each test
below builds such a tie and checks only behaviour: times, allocations and
drawn values.  Nothing here inspects event types or counts, so the tests hold
for any implementation that keeps the drain order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    BackgroundLoadGenerator,
    BackgroundLoadSpec,
    Cluster,
    GramEndpoint,
    LocalJob,
    LocalResourceManager,
)
from repro.sim import Environment
from repro.sim.events import URGENT


def later(env, action):
    """Run *action* in a NORMAL event queued now, behind the ones already queued."""
    env.timeout(0).callbacks.append(lambda _event: action())


def at(env, time, action):
    """Run *action* in a NORMAL event at *time*."""
    env.timeout(time - env.now).callbacks.append(lambda _event: action())


def urgent(env, action):
    """Run *action* in an URGENT event queued now (where a process's first
    step used to run)."""
    env.relay(lambda _event: action(), URGENT)


def gatekeeper(env, nodes, concurrency, latency=5.0, **options):
    cluster = Cluster(env, "c", nodes)
    endpoint = GramEndpoint(
        env,
        cluster,
        submission_latency=latency,
        latency_jitter=options.pop("latency_jitter", 0.0),
        max_concurrent_submissions=concurrency,
        **options,
    )
    return cluster, endpoint


def record(env, outcomes, name, submission):
    """Record ``(time, name, "active" | "refused")`` when *submission* settles."""

    def settled(event):
        outcomes.append((env.now, name, "active" if event.ok else "refused"))

    submission.callbacks.append(settled)


# ---------------------------------------------------------------------------
# GRAM gatekeeper
# ---------------------------------------------------------------------------


def test_concurrency_one_activates_submissions_one_latency_apart_in_order():
    env = Environment()
    _, endpoint = gatekeeper(env, nodes=8, concurrency=1)
    outcomes = []
    for name in ("a", "b", "c"):
        record(env, outcomes, name, endpoint.submit(name))
    env.run()
    assert outcomes == [(5.0, "a", "active"), (10.0, "b", "active"), (15.0, "c", "active")]


def test_concurrency_two_overlaps_two_submissions():
    env = Environment()
    _, endpoint = gatekeeper(env, nodes=8, concurrency=2)
    outcomes = []
    for name in ("a", "b", "c"):
        record(env, outcomes, name, endpoint.submit(name))
    env.run()
    assert outcomes == [(5.0, "a", "active"), (5.0, "b", "active"), (10.0, "c", "active")]


def test_refused_submission_frees_its_slot():
    env = Environment()
    cluster, endpoint = gatekeeper(env, nodes=2, concurrency=1)
    blocker = cluster.allocate(2, owner="local", kind="local")
    outcomes = []
    record(env, outcomes, "a", endpoint.submit("a"))
    record(env, outcomes, "b", endpoint.submit("b"))
    at(env, 6.0, blocker.release)
    env.run()
    assert outcomes == [(5.0, "a", "refused"), (10.0, "b", "active")]
    assert cluster.grid_processors == 1


def test_submissions_keep_their_order_behind_an_arrival_still_in_flight():
    """A submission made while every slot is held queues behind one made
    earlier in the instant whose arrival has not run yet."""
    env = Environment()
    _, endpoint = gatekeeper(env, nodes=8, concurrency=1)
    outcomes = []
    record(env, outcomes, "w", endpoint.submit("w"))
    # Runs after w's arrival took the only slot but before x's arrival.
    urgent(env, lambda: record(env, outcomes, "y", endpoint.submit("y")))
    record(env, outcomes, "x", endpoint.submit("x"))
    env.run()
    assert outcomes == [(5.0, "w", "active"), (10.0, "x", "active"), (15.0, "y", "active")]


def test_recruit_in_the_grant_instant_draws_before_the_granted_latency():
    """The next submission draws its latency one NORMAL hop after the slot
    is granted, so a recruit made by a NORMAL event already queued in that
    instant draws first from the cluster's stream."""
    env = Environment()
    jitter = 0.5
    _, endpoint = gatekeeper(
        env,
        nodes=8,
        concurrency=1,
        latency=4.0,
        recruit_latency=1.0,
        latency_jitter=jitter,
        rng=np.random.default_rng(11),
    )
    outcomes = []
    recruited = []
    first = endpoint.submit("a")
    second = endpoint.submit("b")

    def recruit_first(event):
        # A NORMAL event queued by a's completion, before the free slot is
        # granted to b.
        endpoint.recruit(event.value).callbacks.append(
            lambda _event: recruited.append(env.now)
        )

    first.callbacks.append(recruit_first)
    record(env, outcomes, "a", first)
    record(env, outcomes, "b", second)
    env.run()

    reference = np.random.default_rng(11)
    a_latency, recruit, b_latency = (
        base * (1.0 + reference.uniform(-jitter, jitter)) for base in (4.0, 1.0, 4.0)
    )
    assert outcomes == [(a_latency, "a", "active"), (a_latency + b_latency, "b", "active")]
    assert recruited == [a_latency + recruit]


def test_free_slot_goes_to_the_queue_head_ahead_of_a_later_normal_event():
    """With concurrency 2 and zero latency, a slot freed while nobody waits
    still goes to the queue head at that completion's free relay.

    ``a`` and ``b`` complete in one instant with ``e`` between them.  ``e``
    submits ``c`` (which takes the slot ``a`` freed) and ``w`` (which waits),
    and queues the first hop of a competitor's three-hop chain.  ``w`` is
    granted when ``a``'s freed slot is handed on, two hops before the
    competitor's chain ends, so ``w`` takes the last idle node.
    """
    env = Environment()
    cluster, endpoint = gatekeeper(env, nodes=4, concurrency=2, latency=0.0)
    outcomes = []
    competitor = []

    def chain():
        later(env, lambda: later(env, lambda: competitor.append(
            cluster.try_allocate(1, owner="competitor", kind="local")
        )))

    def e():
        record(env, outcomes, "c", endpoint.submit("c"))
        record(env, outcomes, "w", endpoint.submit("w"))
        later(env, chain)

    record(env, outcomes, "a", endpoint.submit("a"))
    # Fires between the grants of a and b, so that e lands between their
    # completions.
    urgent(env, lambda: later(env, lambda: later(env, e)))
    record(env, outcomes, "b", endpoint.submit("b"))
    env.run()

    assert sorted(name for _, name, state in outcomes if state == "active") == [
        "a", "b", "c", "w",
    ]
    assert competitor == [None]
    assert cluster.grid_processors == 4


# ---------------------------------------------------------------------------
# Local resource manager
# ---------------------------------------------------------------------------


def local_system(env, nodes):
    cluster = Cluster(env, "c", nodes)
    return cluster, LocalResourceManager(env, cluster)


def test_job_submitted_in_a_release_instant_starts_where_the_release_wakes_the_manager():
    """A release wakes the manager even while its queue is empty, so a job
    submitted later in the same instant starts two NORMAL hops after the
    release, not after its own submission."""
    env = Environment()
    cluster, lrm = local_system(env, nodes=4)
    grid = cluster.allocate(4, owner="grid", kind="grid")
    job = LocalJob(processors=4, duration=10, name="local")
    competitor = []

    at(env, 5.0, grid.release)
    # Queued between the release and the submission: its chain's third hop
    # comes after the release-woken dispatch but before a submission-woken one.
    at(env, 5.0, lambda: later(env, lambda: later(env, lambda: competitor.append(
        cluster.try_allocate(4, owner="competitor", kind="grid")
    ))))
    at(env, 5.0, lambda: lrm.submit(job))
    env.run()

    assert job.start_time == 5.0
    assert competitor == [None]


def test_normal_event_queued_after_the_waking_release_allocates_before_dispatch():
    """The manager dispatches two NORMAL hops after the release that wakes
    it, so an allocation queued right after the release comes first."""
    env = Environment()
    cluster, lrm = local_system(env, nodes=4)
    grid = cluster.allocate(4, owner="grid", kind="grid")
    job = LocalJob(processors=4, duration=10, name="local")
    lrm.submit(job)
    competitor = []

    def release_then_compete():
        grid.release()
        later(env, lambda: competitor.append(
            cluster.try_allocate(4, owner="competitor", kind="grid")
        ))

    at(env, 5.0, release_then_compete)
    env.run(until=100)

    assert competitor[0] is not None
    assert job.start_time is None
    assert lrm.queue_length == 1


def test_killed_local_job_is_released_before_the_normal_events_of_its_instant():
    env = Environment()
    cluster, lrm = local_system(env, nodes=4)
    job = LocalJob(processors=3, duration=10, name="victim")
    lrm.submit(job)
    seen = []

    def kill():
        (allocation,) = cluster.active_allocations
        assert lrm.fail_allocation(allocation)
        assert not lrm.fail_allocation(allocation)  # a second strike is a no-op

    at(env, 3.0, kill)
    at(env, 3.0, lambda: seen.append((cluster.idle_processors, job.finish_time)))
    env.run()

    assert seen == [(4, 3.0)]
    assert lrm.finished_count == 1


def test_job_started_by_the_first_dispatch_ends_behind_earlier_urgent_work():
    """A job queued before the manager's first instant starts in that first
    dispatch and ends behind a same-length sleep begun by URGENT work queued
    before the dispatch ran, as if the job were started one URGENT hop late."""
    env = Environment()
    cluster, lrm = local_system(env, nodes=4)
    job = LocalJob(processors=4, duration=7, name="early")
    lrm.submit(job)
    seen = []
    urgent(env, lambda: env.timeout(7).callbacks.append(
        lambda _event: seen.append(cluster.idle_processors)
    ))
    env.run()

    assert job.start_time == 0
    assert job.finish_time == 7
    assert seen == [0]


def test_job_killed_before_its_first_dispatch_launch_is_released_at_once():
    """A job the first dispatch starts can be killed before its URGENT launch
    hop runs; it is then released in the kill's instant and never runs on."""
    env = Environment()
    cluster, lrm = local_system(env, nodes=4)
    job = LocalJob(processors=3, duration=10, name="victim")
    lrm.submit(job)
    seen = []

    def kill():
        (allocation,) = cluster.active_allocations
        cluster.mark_failed(1)
        assert lrm.fail_allocation(allocation)
        assert not lrm.fail_allocation(allocation)  # a second strike is a no-op
        later(env, lambda: seen.append((cluster.idle_processors, job.finish_time)))

    # Queued behind the manager's first dispatch, ahead of the launch hop
    # that dispatch pushes.
    urgent(env, kill)
    env.run()

    assert job.start_time == 0
    assert seen == [(3, 0)]
    assert lrm.finished_count == 1
    assert env.now == 0
    assert cluster.idle_processors == 3


@pytest.mark.parametrize("backfilling", [False, True])
def test_jobs_queued_before_the_first_dispatch_still_start_in_order(backfilling):
    env = Environment()
    cluster = Cluster(env, "c", 4)
    lrm = LocalResourceManager(env, cluster, backfilling=backfilling)
    jobs = [LocalJob(processors=p, duration=5, name=f"j{i}") for i, p in enumerate((3, 2, 1))]
    for job in jobs:
        lrm.submit(job)
    env.run()
    expected = [0, 5, 0] if backfilling else [0, 5, 5]
    assert [job.start_time for job in jobs] == expected
    assert all(job.finish_time == job.start_time + 5 for job in jobs)


# ---------------------------------------------------------------------------
# Background load
# ---------------------------------------------------------------------------


#: Gaps and durations are both exponential draws; their means tell them apart.
GAP_MEAN = 10.0
DURATION_MEAN = 7.0


class ScriptedRng:
    """Serves scripted draws and logs each with its time and what it drew."""

    def __init__(self, env, log, gaps, durations=(), processors=()):
        self.env = env
        self.log = log
        self.script = {GAP_MEAN: list(gaps), DURATION_MEAN: list(durations)}
        self.processors = list(processors)

    def exponential(self, scale):
        kind = "gap" if scale == GAP_MEAN else "duration"
        self.log.append((self.env.now, kind))
        return self.script[scale].pop(0)

    def integers(self, low, high):
        self.log.append((self.env.now, "processors"))
        return self.processors.pop(0)


def background(env, rng, **window):
    """A generator on a fresh manager, and the list of jobs it submits (the
    generator and the manager keep counts, not jobs)."""
    cluster = Cluster(env, "c", 4)
    lrm = LocalResourceManager(env, cluster)
    spec = BackgroundLoadSpec(
        mean_interarrival=GAP_MEAN, mean_duration=DURATION_MEAN, max_processors=4, **window
    )
    submitted = []

    def record(job, submit=lrm.submit):
        submitted.append(job)
        return submit(job)

    lrm.submit = record
    return lrm, BackgroundLoadGenerator(env, lrm, spec, rng), submitted


def test_first_gap_is_drawn_ahead_of_the_normal_events_of_the_construction_instant():
    """The stream starts one URGENT hop after its construction: behind URGENT
    work queued before it, ahead of every NORMAL event of the instant."""
    env = Environment()
    log = []
    urgent(env, lambda: log.append((env.now, "urgent")))
    later(env, lambda: log.append((env.now, "normal")))
    background(env, ScriptedRng(env, log, gaps=[100.0]), end_time=50.0)
    env.run()
    assert log == [(0, "urgent"), (0, "gap"), (0, "normal")]


def test_arrival_draws_processors_and_duration_then_submits_then_draws_the_next_gap():
    env = Environment()
    log = []
    rng = ScriptedRng(env, log, gaps=[3.0, 4.0, 5.0], durations=[2.5, 1.5], processors=[2, 3])
    lrm, generator, jobs = background(env, rng, end_time=9.0)
    submitted = []

    def submit(job):
        jobs.append(job)
        submitted.append((env.now, len(log)))  # how many draws came first

    lrm.submit = submit
    env.run()
    assert log == [
        (0, "gap"),
        (3.0, "processors"), (3.0, "duration"), (3.0, "gap"),
        (7.0, "processors"), (7.0, "duration"), (7.0, "gap"),
    ]
    assert submitted == [(3.0, 3), (7.0, 6)]
    assert [(job.processors, job.duration) for job in jobs] == [(2, 2.5), (3, 1.5)]
    assert generator.submitted_count == 2


def test_arrival_at_exactly_the_end_time_submits_nothing():
    env = Environment()
    log = []
    lrm, generator, jobs = background(
        env, ScriptedRng(env, log, gaps=[2.0, 4.0], durations=[1.0], processors=[1]), end_time=6.0
    )
    env.run()
    assert [job.submit_time for job in jobs] == [2.0]
    assert log[-1] == (2.0, "gap")
    assert env.now == 6.0
    assert lrm.finished_count == generator.submitted_count == 1 and jobs[0].finished


def test_start_time_delays_the_first_draw():
    env = Environment()
    log = []
    _, _, jobs = background(
        env, ScriptedRng(env, log, gaps=[1.0, 10.0], durations=[1.0], processors=[1]),
        start_time=5.0, end_time=8.0,
    )
    env.run()
    assert log[0] == (5.0, "gap")
    assert [job.submit_time for job in jobs] == [6.0]
