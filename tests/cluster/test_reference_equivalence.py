"""Property: the shipped cluster services keep the reference drain order.

Small multicluster systems, dense in same-instant ties (zero GRAM jitter,
integer latencies, submit times and durations, background load whose gaps
and durations are whole seconds, adaptation points at every instant), run
twice: once with the process-based reference GRAM endpoint, local resource
manager and background-load generator of :mod:`_reference_cluster` patched
into :mod:`repro.cluster.multicluster`, and once as shipped.  Both runs must
produce the same metrics digest, the same submit, start and finish times for
every KOALA job, every local job and every background job, and the same
outcome for every direct allocation competing with them.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.profiles import ApplicationProfile
from repro.apps.speedup import TabulatedSpeedup
from repro.cluster import BackgroundLoadSpec, LocalJob, Multicluster
from repro.cluster import multicluster as multicluster_module
from repro.koala import Job, KoalaScheduler, SchedulerConfig
from repro.metrics.collector import ExperimentMetrics, run_digest
from repro.sim import Environment, RandomStreams

from _reference_cluster import BackgroundLoadGenerator, GramEndpoint, LocalResourceManager

#: Integer execution times at every size a job can run on.
PROFILE = ApplicationProfile(
    name="tied",
    speedup=TabulatedSpeedup([(1, 24.0), (2, 12.0), (3, 8.0), (4, 6.0), (6, 4.0), (8, 3.0)]),
    default_minimum=1,
    default_maximum=8,
)

HORIZON = 400.0

#: NORMAL hops between a submission's timer firing and the submission, so
#: submissions also land behind the releases and GRAM completions of their
#: instant, not only ahead of them.
hops = st.integers(0, 3)
local_jobs = st.lists(
    st.tuples(
        st.integers(0, 1),  # cluster index
        st.integers(0, 8),  # submit time
        hops,
        st.integers(1, 4),  # processors
        st.integers(1, 6),  # duration
    ),
    max_size=12,
)
#: Direct grid allocations that compete for processors inside an instant and
#: release them some hops into a later one.
blockers = st.lists(
    st.tuples(
        st.integers(0, 1),  # cluster index
        st.integers(0, 8),  # allocation time
        hops,
        st.integers(1, 4),  # processors
        st.integers(1, 6),  # holding time
    ),
    max_size=4,
)
koala_jobs = st.lists(
    st.tuples(
        st.integers(0, 8),  # submit time
        hops,
        st.booleans(),  # malleable
        st.integers(1, 3),  # (initial) processors
    ),
    min_size=1,
    max_size=8,
)
#: Background load per cluster: arrivals and ends tie with the other events
#: because gaps and durations are whole seconds (see ``WholeSecondStreams``).
backgrounds = st.one_of(
    st.none(),
    st.builds(
        BackgroundLoadSpec,
        mean_interarrival=st.sampled_from([2.0, 5.0]),
        mean_duration=st.sampled_from([1.0, 4.0]),
        max_processors=st.integers(1, 3),
        start_time=st.integers(0, 4).map(float),
        end_time=st.one_of(st.none(), st.integers(4, 40).map(float)),
    ),
)
systems = st.fixed_dictionaries(
    {
        "sizes": st.tuples(st.integers(2, 5), st.integers(2, 5)),
        "concurrency": st.integers(1, 3),
        # Zero latency, drawn twice as often, completes a GRAM submission
        # in the instant it was granted, among that instant's other work.
        "latency": st.sampled_from([0, 0, 1]),
        "recruit": st.integers(0, 1),
        "backfilling": st.booleans(),
        "policy": st.sampled_from(["FPSMA", "EGS"]),
        "approach": st.sampled_from(["PRA", "PWA"]),
        "poll": st.sampled_from([2.0, 5.0]),
        "local": local_jobs,
        "blockers": blockers,
        "koala": koala_jobs,
        "background": st.tuples(backgrounds, backgrounds),
    }
)


class WholeSeconds:
    """A random stream whose exponential draws are rounded to whole seconds."""

    def __init__(self, rng):
        self._rng = rng

    def exponential(self, scale):
        return float(round(self._rng.exponential(scale)))

    def integers(self, low, high):
        return self._rng.integers(low, high)


class WholeSecondStreams(RandomStreams):
    """Random streams whose background lanes draw whole-second gaps."""

    def __getitem__(self, name):
        stream = super().__getitem__(name)
        return WholeSeconds(stream) if name.startswith("background:") else stream


def simulate(system):
    """Run *system*; returns its digest, every job's (submit, start, finish),
    every background job's draws and times, and every blocker's allocation
    outcome."""
    env = Environment()
    streams = WholeSecondStreams(seed=3)
    multicluster = Multicluster(
        env,
        streams=streams,
        gram_submission_latency=float(system["latency"]),
        gram_recruit_latency=float(system["recruit"]),
        gram_latency_jitter=0.0,
        gram_concurrency=system["concurrency"],
        local_backfilling=system["backfilling"],
    )
    names = ["alpha", "beta"]
    for name, size, background in zip(names, system["sizes"], system["background"]):
        multicluster.add_cluster(name, size, background=background)
    scheduler = KoalaScheduler(
        env,
        multicluster,
        SchedulerConfig(
            malleability_policy=system["policy"],
            approach=system["approach"],
            poll_interval=system["poll"],
            adaptation_point_interval=0.0,
        ),
        streams=streams,
    )

    def after(count, action):
        if count:
            env.timeout(0).callbacks.append(lambda _event: after(count - 1, action))
        else:
            action()

    def at(time, count, action):
        if time == 0 and count == 0:
            action()  # before the run: the construction instant's work
        else:
            env.timeout(time - env.now).callbacks.append(lambda _event: after(count, action))

    locals_ = []
    for index, (cluster, submit, delay, processors, duration) in enumerate(system["local"]):
        name = names[cluster]
        size = system["sizes"][cluster]
        job = LocalJob(min(processors, size), float(duration), name=f"local-{index}")
        locals_.append(job)
        at(submit, delay, lambda job=job, name=name: multicluster.local_rm(name).submit(job))
    blocked = []
    for index, (cluster, time, delay, processors, hold) in enumerate(system["blockers"]):

        def block(index=index, cluster=multicluster.cluster(names[cluster]), processors=processors,
                  hold=hold, delay=delay):
            allocation = cluster.try_allocate(processors, owner=f"blocker-{index}")
            blocked.append((index, env.now, allocation is not None))
            if allocation is not None:
                at(env.now + hold, delay, allocation.release)

        at(time, delay, block)
    jobs = []
    for index, (submit, delay, malleable, processors) in enumerate(system["koala"]):
        if malleable:
            job = Job.malleable(
                PROFILE, initial_processors=processors, minimum=1, maximum=6,
                name=f"koala-{index}",
            )
        else:
            job = Job.rigid(PROFILE.as_rigid(), processors, name=f"koala-{index}")
        jobs.append(job)
        at(submit, delay, lambda job=job: scheduler.submit(job))

    env.run(until=HORIZON)
    metrics = ExperimentMetrics.from_run(scheduler, multicluster, label="tied")
    background_jobs = [
        job for name in names if multicluster.background(name) is not None
        for job in multicluster.background(name).jobs
    ]
    return (
        run_digest(metrics.to_dict()),
        [(job.submit_time, job.start_time, job.finish_time) for job in jobs],
        [(job.submit_time, job.start_time, job.finish_time) for job in locals_],
        [
            (job.name, job.processors, job.duration, job.submit_time, job.start_time,
             job.finish_time)
            for job in background_jobs
        ],
        blocked,
    )


def simulate_reference(system):
    with mock.patch.object(multicluster_module, "GramEndpoint", GramEndpoint), mock.patch.object(
        multicluster_module, "LocalResourceManager", LocalResourceManager
    ), mock.patch.object(multicluster_module, "BackgroundLoadGenerator", BackgroundLoadGenerator):
        return simulate(system)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(system=systems)
def test_shipped_classes_keep_the_reference_drain_order(system):
    assert simulate(system) == simulate_reference(system)


def test_the_reference_is_patched_in_and_the_property_sees_ties():
    """Guard the guard: the patch reaches the built system, and a fixed
    system of the property's shape does tie releases, submissions and
    background arrivals."""
    system = {
        "sizes": (4, 4),
        "concurrency": 1,
        "latency": 1,
        "recruit": 0,
        "backfilling": False,
        "policy": "FPSMA",
        "approach": "PRA",
        "poll": 5.0,
        "local": [(0, 0, 0, 2, 5), (1, 0, 0, 3, 5), (0, 5, 1, 4, 3)],
        "blockers": [(1, 2, 1, 1, 3)],
        "koala": [(0, 0, True, 2), (1, 0, False, 2), (5, 2, True, 1)],
        "background": (
            None,
            BackgroundLoadSpec(
                mean_interarrival=2.0, mean_duration=4.0, max_processors=2,
                start_time=1.0, end_time=12.0,
            ),
        ),
    }
    with mock.patch.object(multicluster_module, "GramEndpoint", GramEndpoint), mock.patch.object(
        multicluster_module, "BackgroundLoadGenerator", BackgroundLoadGenerator
    ):
        env = Environment()
        built = Multicluster(env)
        built.add_cluster("alpha", 4, background=BackgroundLoadSpec(mean_interarrival=2.0))
        assert type(built.gram("alpha")) is GramEndpoint
        assert type(built.background("alpha")) is BackgroundLoadGenerator
    digest, koala_times, local_times, background, blocked = simulate(system)
    assert (digest, koala_times, local_times, background, blocked) == simulate_reference(system)
    assert blocked == [(0, 2.0, True)]
    assert all(finish is not None for _, _, finish in koala_times + local_times)
    # Two local jobs end, and a third is submitted, in the same instant.
    assert local_times[0][2] == local_times[1][2] == local_times[2][0] == 5.0
    # Two background jobs arrive in one instant (a zero gap) with the
    # blocker's allocation, and a third in the instant above.
    assert [submit for _, _, _, submit, _, _ in background] == [2.0, 2.0, 5.0, 8.0]
