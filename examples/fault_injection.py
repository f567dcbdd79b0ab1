#!/usr/bin/env python
"""Malleability as resilience: the same workload under node churn.

The paper's premise is a multicluster whose availability changes while jobs
run.  This example makes the consequence concrete with the fault-injection
subsystem: it runs the same mixed malleable/rigid workload three times —

* on a reliable machine (no faults),
* under exponential per-node churn with a malleability policy (malleable
  jobs *shrink through* failures whose remainder still fits their minimum),
* under the identical churn with malleability disabled (every struck job is
  killed and resubmitted),

and compares the resilience metrics: job kills, shrink-rescues,
resubmissions, processor-seconds of wasted work and the utilization
normalised by the capacity that was actually up.

Run it with::

    python examples/fault_injection.py
    python examples/fault_injection.py --mtbf 3600 --mttr 300 --jobs 60
    python examples/fault_injection.py --fault 'fault:outage?cluster=delft&at=1800&duration=1800'

(The same comparison is available declaratively: ``repro-cli run
fault-sweep`` sweeps MTBF x policy, ``repro-cli run churn-replay`` replays a
trace malleable-vs-rigid, and ``repro-cli list faults`` shows every model.)
"""

from __future__ import annotations

import argparse

from repro.experiments.setup import ExperimentConfig, run_experiment


def run(label: str, *, fault: str | None, policy: str | None, args) -> dict:
    """One experiment run; returns the summary row for the final table."""
    config = ExperimentConfig(
        name=label,
        workload="Wmr",
        job_count=args.jobs,
        malleability_policy=policy,
        approach="PRA",
        placement_policy="WF",
        seed=args.seed,
        fault_model=fault,
    )
    result = run_experiment(config)
    summary = result.metrics.summary()
    return {
        "run": label,
        "finished jobs": int(summary["jobs"]),
        "kills": int(summary.get("jobs_killed", 0)),
        "rescues": int(summary.get("shrink_rescues", 0)),
        "resubmits": int(summary.get("resubmissions", 0)),
        "wasted proc-s": f"{summary.get('wasted_processor_seconds', 0.0):.0f}",
        "mean resp (s)": f"{summary['mean_response_time']:.0f}",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=40, help="jobs per run (default 40)")
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--mtbf", type=float, default=10800.0, help="per-node mean time between failures (s)"
    )
    parser.add_argument(
        "--mttr", type=float, default=900.0, help="per-node mean time to repair (s)"
    )
    parser.add_argument(
        "--fault",
        default=None,
        help="full fault reference overriding the --mtbf/--mttr churn "
        "(e.g. 'fault:outage?cluster=delft&at=1800&duration=900')",
    )
    args = parser.parse_args()
    fault = args.fault or f"fault:exp?mtbf={args.mtbf:g}&mttr={args.mttr:g}"

    rows = [
        run("reliable", fault=None, policy="EGS", args=args),
        run("churn + EGS", fault=fault, policy="EGS", args=args),
        run("churn, no malleability", fault=fault, policy=None, args=args),
    ]

    columns = list(rows[0])
    widths = {
        column: max(len(column), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    print(f"\nFault model: {fault}\n")
    print(header)
    print("  ".join("-" * widths[column] for column in columns))
    for row in rows:
        print("  ".join(str(row[column]).ljust(widths[column]) for column in columns))
    print(
        "\nMalleable jobs shrink through failures their minimum survives; with "
        "malleability off,\nthe same failures kill the jobs outright and their "
        "work is paid again on resubmission."
    )


if __name__ == "__main__":
    main()
