"""Property: the shipped callback chains keep the reference drain order.

Small multicluster systems, dense in same-instant ties (zero GRAM jitter,
integer latencies, submit times and durations, background load whose gaps
and durations are whole seconds, adaptation points at every instant in
most systems, integer reconfiguration pauses, KIS polls on an integer grid,
fault windows at integer times), run twice: once
with the process-based reference GRAM endpoint, local resource manager,
background-load generator, KIS, workload submitter, fault injector, rigid
and malleable runners, DYNACO, malleability manager and application runtime
of :mod:`_reference_cluster` patched in, and once as shipped.  Both runs must
produce the same metrics digest, the same poll instants, the same submit,
start and finish times for every KOALA job, every local job and every
background job, the same fault counters, and the same outcome for every
direct allocation competing with them.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.profiles import ApplicationProfile
from repro.apps.reconfiguration import ConstantReconfigurationCost
from repro.apps.speedup import TabulatedSpeedup
from repro.cluster import BackgroundLoadSpec, LocalJob, Multicluster
from repro.apps.profiles import ProfileRegistry
from repro.cluster import multicluster as multicluster_module
from repro.faults import injector as injector_module
from repro.koala import Job, JobKind, KoalaScheduler, SchedulerConfig
from repro.koala import mrunner as mrunner_module
from repro.koala import runners as runners_module
from repro.koala import scheduler as scheduler_module
from repro.malleability import manager as manager_module
from repro.metrics.collector import ExperimentMetrics, run_digest
from repro.sim import Environment, RandomStreams
from repro.workloads import JobSpec, WorkloadSpec
from repro.workloads import submission as submission_module

import _reference_cluster as reference

#: (module, name) of every class the reference replaces.
PATCHES = [
    (multicluster_module, "GramEndpoint"),
    (multicluster_module, "LocalResourceManager"),
    (multicluster_module, "BackgroundLoadGenerator"),
    (scheduler_module, "KoalaInformationService"),
    (submission_module, "WorkloadSubmitter"),
    (injector_module, "FaultInjector"),
    (runners_module, "RigidRunner"),
    (scheduler_module, "MalleableRunner"),
    (runners_module, "RunningApplication"),
    (mrunner_module, "RunningApplication"),
    (mrunner_module, "Dynaco"),
    (manager_module, "MalleabilityManager"),
]

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
    max_size=8,
)
#: KOALA jobs the workload submitter hands in: integer submit times, so
#: submissions tie with polls, releases, faults and each other.
submitted_jobs = st.lists(
    st.tuples(
        st.integers(0, 8),  # submit time
        st.booleans(),  # malleable
        st.integers(1, 3),  # (initial) processors
    ),
    max_size=6,
)
#: An optional fault window at integer times and sizes (0 nodes: the whole
#: cluster), opening within the submitter's times so the two tie.  Windows
#: open at t >= 1: at t = 0 the injector's first link can strike a local job
#: the reference dispatcher has started but whose process has not run yet,
#: and the interrupt then kills that process (the shipped local resource
#: manager kills a job whose launch is still pending).
faults = st.one_of(
    st.none(),
    st.builds(
        "fault:{}?at={}&cluster={}&duration={}&nodes={}".format,
        st.sampled_from(["outage", "drain"]),
        st.integers(1, 8),
        st.sampled_from(["alpha", "beta", "all"]),
        st.integers(1, 8),
        st.integers(0, 3),
    ),
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
        # Adaptation points at every instant, twice as often as waits drawn
        # from the applications stream; a reconfiguration that pauses the
        # application for 0 or 1 s.  Waits and pauses run the application's
        # request chain through its timeouts, not only its interrupt relay.
        "adaptation": st.sampled_from([0.0, 0.0, 2.0]),
        "reconfiguration": st.sampled_from([0.0, 1.0]),
        # A 1 s poll ties each poll with the GRAM timeouts the previous
        # poll's placements pushed.
        "poll": st.sampled_from([1.0, 2.0, 5.0]),
        "local": local_jobs,
        "blockers": blockers,
        "koala": koala_jobs,
        "submitted": submitted_jobs,
        "fault": faults,
        "background": st.tuples(backgrounds, backgrounds),
    }
).filter(lambda system: system["koala"] or system["submitted"])


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


def run_system(system):
    """Build and run *system*; returns its outcome and the scheduler, the
    workload submitter and the fault injector (``None`` without a fault).

    The outcome is the digest, every poll instant, every job's (submit,
    start, finish), every background job's draws and times, the fault
    counters and every blocker's allocation outcome.  The submitter and the
    injector are looked up in their modules when built, so a patch of either
    module reaches them.
    """
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
            adaptation_point_interval=system["adaptation"],
        ),
        streams=streams,
    )
    polls = []
    scheduler.kis.on_poll(lambda snapshot: polls.append(snapshot.time))
    injector = None
    if system["fault"] is not None:
        injector = injector_module.FaultInjector(env, scheduler, system["fault"], streams)

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
    profile = PROFILE
    if system["reconfiguration"]:
        profile = PROFILE.with_reconfiguration(
            ConstantReconfigurationCost(system["reconfiguration"])
        )
    jobs = []
    for index, (submit, delay, malleable, processors) in enumerate(system["koala"]):
        if malleable:
            job = Job.malleable(
                profile, initial_processors=processors, minimum=1, maximum=6,
                name=f"koala-{index}",
            )
        else:
            job = Job.rigid(profile.as_rigid(), processors, name=f"koala-{index}")
        jobs.append(job)
        at(submit, delay, lambda job=job: scheduler.submit(job))
    registry = ProfileRegistry()
    registry.register(profile)
    workload = WorkloadSpec(
        name="submitted",
        jobs=[
            JobSpec(
                submit_time=float(submit),
                profile_name=PROFILE.name,
                kind=JobKind.MALLEABLE if malleable else JobKind.RIGID,
                initial_processors=processors,
                minimum_processors=1,
                maximum_processors=6,
                name=f"submitted-{index}",
            )
            for index, (submit, malleable, processors) in enumerate(system["submitted"])
        ],
    )
    submitter = submission_module.WorkloadSubmitter(env, scheduler, workload, registry=registry)

    env.run(until=HORIZON)
    metrics = ExperimentMetrics.from_run(scheduler, multicluster, label="tied")
    background_jobs = [
        job for name in names if multicluster.background(name) is not None
        for job in multicluster.background(name).jobs
    ]
    outcome = (
        run_digest(metrics.to_dict()),
        polls,
        [(job.submit_time, job.start_time, job.finish_time) for job in jobs + submitter.jobs],
        [(job.submit_time, job.start_time, job.finish_time) for job in locals_],
        [
            (job.name, job.processors, job.duration, job.submit_time, job.start_time,
             job.finish_time)
            for job in background_jobs
        ],
        None if injector is None else injector.resilience_summary(),
        blocked,
    )
    return outcome, scheduler, submitter, injector


def simulate(system):
    return run_system(system)[0]


def reference_patches():
    """A context manager patching every reference class into its module."""
    stack = ExitStack()
    for module, name in PATCHES:
        stack.enter_context(mock.patch.object(module, name, getattr(reference, name)))
    return stack


def simulate_reference(system):
    with reference_patches():
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
    system of the property's shape does tie releases, submissions, polls and
    background arrivals, and does apply its fault."""
    system = {
        "sizes": (4, 4),
        "concurrency": 1,
        "latency": 1,
        "recruit": 0,
        "backfilling": False,
        "policy": "FPSMA",
        "approach": "PRA",
        "adaptation": 0.0,
        "reconfiguration": 0.0,
        "poll": 5.0,
        "local": [(0, 0, 0, 2, 5), (1, 0, 0, 3, 5), (0, 5, 1, 4, 3)],
        "blockers": [(1, 2, 1, 1, 3)],
        "koala": [(0, 0, True, 2), (1, 0, False, 2), (5, 2, True, 1)],
        "submitted": [(5, True, 2), (10, False, 1)],
        "fault": "fault:drain?at=10&cluster=alpha&duration=5&nodes=2",
        "background": (
            None,
            BackgroundLoadSpec(
                mean_interarrival=2.0, mean_duration=4.0, max_processors=2,
                start_time=1.0, end_time=12.0,
            ),
        ),
    }
    with reference_patches():
        outcome, scheduler, submitter, injector = run_system(system)
    built = scheduler.multicluster
    assert type(built.gram("alpha")) is reference.GramEndpoint
    assert type(built.local_rm("alpha")) is reference.LocalResourceManager
    assert type(built.background("beta")) is reference.BackgroundLoadGenerator
    assert type(scheduler.kis) is reference.KoalaInformationService
    assert type(submitter) is reference.WorkloadSubmitter
    assert type(injector) is reference.FaultInjector
    assert type(scheduler.manager) is reference.MalleabilityManager
    runners = list(scheduler._runners.values())
    rigid = [runner for runner in runners if runner.job.kind is JobKind.RIGID]
    malleable = [runner for runner in runners if runner.job.kind is JobKind.MALLEABLE]
    assert rigid and all(type(runner) is reference.RigidRunner for runner in rigid)
    assert malleable and all(type(runner) is reference.MalleableRunner for runner in malleable)
    assert all(type(runner.application) is reference.RunningApplication for runner in runners)
    assert all(type(runner.dynaco) is reference.Dynaco for runner in malleable)
    assert simulate(system) == outcome
    digest, polls, koala_times, local_times, background, resilience, blocked = outcome
    assert blocked == [(0, 2.0, True)]
    assert all(finish is not None for _, _, finish in koala_times + local_times)
    # Two local jobs end, and a third is submitted, in the same instant.
    assert local_times[0][2] == local_times[1][2] == local_times[2][0] == 5.0
    # Two background jobs arrive in one instant (a zero gap) with the
    # blocker's allocation, and a third in the instant above.
    assert [submit for _, _, _, submit, _, _ in background] == [2.0, 2.0, 5.0, 8.0]
    # Both submitter jobs are handed in at an instant of the poll grid.
    submitted = [submit for submit, _, _ in koala_times[3:]]
    assert submitted == [5.0, 10.0]
    assert set(submitted) <= set(polls)
    assert resilience["node_failures"] == 1
    assert resilience["node_repairs"] == 1
