#!/usr/bin/env python
"""Quickstart: schedule a small malleable workload on the simulated DAS-3.

This example walks through the whole public API once:

1. build the DAS-3 multicluster of Table I,
2. create a KOALA scheduler configured with the paper's defaults
   (Worst-Fit placement, FPSMA malleability management, PRA approach),
3. submit a handful of malleable FT and GADGET-2 jobs,
4. run the simulation and print per-job results plus scheduler statistics.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.apps import ft_profile, gadget2_profile
from repro.cluster import das3_multicluster
from repro.koala import Job, KoalaScheduler, SchedulerConfig
from repro.metrics import ExperimentMetrics, format_table
from repro.sim import Environment, RandomStreams
from repro.sim.events import URGENT


def main() -> None:
    # 1. The simulation environment and the DAS-3 testbed (Table I).
    env = Environment()
    streams = RandomStreams(seed=42)
    das3 = das3_multicluster(env, streams=streams)
    print(f"Built the DAS-3: {len(das3)} clusters, {das3.total_processors} nodes total")

    # 2. The KOALA scheduler with malleability support.
    scheduler = KoalaScheduler(
        env,
        das3,
        SchedulerConfig(
            placement_policy="WF",
            malleability_policy="FPSMA",
            approach="PRA",
            grow_offer_mode="idle",  # grow eagerly: nothing else competes here
        ),
        streams=streams,
    )

    # 3. Submit a small workload: alternating GADGET-2 and FT malleable jobs,
    #    two minutes apart, all starting at their minimum size of 2 nodes.
    #    The submitter is a callback chain: each link submits one job and
    #    arms a timeout whose callback is the next link.
    profiles = [gadget2_profile(), ft_profile()]

    def submit_job(index: int) -> None:
        profile = profiles[index % 2]
        scheduler.submit(Job.malleable(profile, name=f"{profile.name}-{index + 1}"))
        if index + 1 < 8:
            env.timeout(120.0).callbacks.append(lambda _event: submit_job(index + 1))

    # The first link runs in an URGENT event at t=0, once the run starts.
    env.relay(lambda _event: submit_job(0), URGENT)

    # 4. Run until everything finished and report.
    env.run(until=20_000)
    assert scheduler.all_done, "some jobs did not finish within the horizon"

    metrics = ExperimentMetrics.from_run(scheduler, das3, label="quickstart")
    rows = [
        (
            job.name,
            job.profile,
            f"{job.execution_time:.0f}",
            f"{job.response_time:.0f}",
            f"{job.average_allocation:.1f}",
            job.maximum_allocation,
            job.grow_count,
        )
        for job in metrics.jobs
    ]
    print()
    print(
        format_table(
            ["job", "application", "exec (s)", "response (s)", "avg procs", "max procs", "grows"],
            rows,
            title="Per-job results",
        )
    )
    print()
    summary = metrics.summary()
    print(f"Mean execution time : {summary['mean_execution_time']:.0f} s")
    print(f"Mean response time  : {summary['mean_response_time']:.0f} s")
    print(f"Grow messages sent  : {summary['grow_messages']:.0f}")
    print(f"Peak KOALA usage    : {summary['peak_utilization']:.0f} processors")
    print()
    print("Compare with a rigid run: every job stays on 2 nodes, so a GADGET-2")
    print(f"job would take {gadget2_profile().execution_time(2):.0f} s instead of "
          f"{metrics.select(profile='gadget2')[0].execution_time:.0f} s here.")


if __name__ == "__main__":
    main()
