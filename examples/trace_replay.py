#!/usr/bin/env python
"""Replay a workload-archive trace (Standard Workload Format) through KOALA.

Grid and parallel workload archives distribute job traces in the Standard
Workload Format (SWF).  This example shows the "what if these jobs had been
malleable?" experiment using the trace subsystem end-to-end: it takes a
named trace (the bundled deterministic ``das3-synthetic`` generator by
default, or any real archive file you point it at), replays it twice through
the simulated KOALA scheduler — once rigid as recorded, once with the same
jobs made malleable between 2 processors and their recorded request — and
compares the outcomes.

The replays run through :class:`repro.workloads.StreamingWorkload`, the
flat-memory streaming path: job specifications are generated while the
simulation consumes them, so the same script replays a 100k-job archive
trace without materialising it.

Run it with::

    python examples/trace_replay.py                          # bundled trace
    python examples/trace_replay.py --trace path/to.swf --max-jobs 200
    python examples/trace_replay.py --load-factor 2          # double the load

(The same comparison is available declaratively: ``repro-cli run
trace-replay`` sweeps malleability policies over a trace, and ``repro-cli
list traces`` shows what can be replayed.)
"""

from __future__ import annotations

import argparse

from repro.experiments.setup import ExperimentConfig, build_system
from repro.metrics import ExperimentMetrics, format_table
from repro.sim import Environment, RandomStreams
from repro.workloads import StreamingWorkload, TraceRef, WorkloadSubmitter


def replay(workload, *, label: str, seed: int) -> ExperimentMetrics:
    """Replay one workload through a freshly built system.

    The DAS-3 carries a substantial background load (75% of each cluster), so
    large rigid jobs often have to wait for enough free processors, while
    malleable jobs can start right away on 2 and grow ("idle" offer mode)
    towards their recorded request whenever capacity frees up.
    """
    config = ExperimentConfig(
        name=label,
        malleability_policy="EGS",
        approach="PRA",
        seed=seed,
        background_fraction=0.75,
        grow_offer_mode="idle",
    )
    env = Environment()
    streams = RandomStreams(seed=seed)
    multicluster, scheduler = build_system(config, env, streams)
    WorkloadSubmitter(env, scheduler, workload)
    # The workload streams, so its duration is unknown upfront: run in
    # chunks until the horizon stops moving and the scheduler drains.
    while True:
        env.run(until=env.now + 50_000)
        if env.now >= workload.duration + 100_000:
            break
    return ExperimentMetrics.from_run(scheduler, multicluster, label=label)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        default="das3-synthetic",
        help="trace name or .swf path (see repro-cli list traces)",
    )
    parser.add_argument("--max-jobs", type=int, default=100, help="cap on replayed jobs")
    parser.add_argument(
        "--load-factor", type=float, default=None, help="compress arrivals by this factor"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    params = {"max_procs": 85}
    if args.load_factor is not None:
        params["load_factor"] = args.load_factor

    def reference(malleable: float) -> str:
        return TraceRef(args.trace, {**params, "malleable": malleable}).canonical()

    rigid = replay(
        StreamingWorkload.from_reference(reference(0.0), job_count=args.max_jobs),
        label="rigid",
        seed=args.seed,
    )
    malleable = replay(
        StreamingWorkload.from_reference(reference(1.0), job_count=args.max_jobs),
        label="malleable",
        seed=args.seed,
    )
    print(f"Replayed {rigid.job_count} jobs of trace {args.trace!r} (streaming)")

    def row(metrics: ExperimentMetrics):
        summary = metrics.summary()
        waits = [job.wait_time for job in metrics.jobs]
        mean_wait = sum(waits) / len(waits) if waits else 0.0
        return (
            metrics.label,
            metrics.job_count,
            f"{mean_wait:.0f}",
            f"{summary['mean_execution_time']:.0f}",
            f"{summary['mean_response_time']:.0f}",
            f"{summary['mean_average_allocation']:.1f}",
            int(summary["grow_messages"]),
        )

    print()
    print(
        format_table(
            [
                "replay",
                "jobs",
                "mean wait (s)",
                "mean exec (s)",
                "mean response (s)",
                "avg procs",
                "grow msgs",
            ],
            [row(rigid), row(malleable)],
            title="Rigid replay vs malleable replay of the same trace (busy DAS-3)",
        )
    )
    print()
    print("The rigid replay must find each job's full recorded processor count")
    print("before it can start, so large jobs queue behind the background load;")
    print("the malleable replay starts every job on 2 processors immediately and")
    print("grows it towards the recorded request as capacity frees up — shorter")
    print("waits, at the price of running below the requested size some of the time.")


if __name__ == "__main__":
    main()
