"""Command-line entry point: ``repro-bench``.

Runs registered scenarios at pinned seeds, prints what each run did (runs,
jobs, kernel events and wall-clock seconds) and optionally gates the records
against the committed baselines under ``benchmarks/baselines/``.

Examples
--------
Measure the default scenario set::

    repro-bench

Benchmark several scenarios at the paper's full size::

    repro-bench figure7 figure8 --job-count 300

Gate against the committed baselines, failing the process on a missing
baseline or on any record field that differs from it (what CI runs on every
PR)::

    repro-bench figure7 --job-count 40 --seed 0 --check

Write the current records as the new baselines (commit the result)::

    repro-bench figure7 --job-count 40 --seed 0 --update
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.bench.baseline import check_record, default_baseline_dir, save_baseline
from repro.bench.runner import benchable_scenarios, records_report, run_bench
from repro.obs.log import survive_closed_stdout

#: Scenarios benchmarked when none is named: the paper's central sweep, the
#: trace-replay path (SWF ingestion + transformation), the fault sweep
#: (node churn + failure-aware scheduling + resilience metrics) and the
#: churn-replay combination (trace-driven submissions under node churn) —
#: together they cover every hot subsystem of the simulator.
DEFAULT_SCENARIOS = ("figure7", "trace-replay", "fault-sweep", "churn-replay")

#: Default job count: the size the default set's baselines are committed at,
#: so a bare ``repro-bench --check`` gates them.
DEFAULT_JOB_COUNT = 40


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``repro-bench``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run scenario benchmarks and gate their records against "
        "the committed baselines.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        default=None,
        help=f"scenarios to benchmark (default: {' '.join(DEFAULT_SCENARIOS)}; "
        "'all' = every sweep scenario)",
    )
    parser.add_argument(
        "--job-count",
        type=int,
        default=DEFAULT_JOB_COUNT,
        help="jobs per workload (default: %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="pinned root seed (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=default_baseline_dir(),
        help="committed-baseline directory (default: %(default)s)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare each record with its committed baseline; exit 1 on a "
        "missing baseline or any differing field",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the records as the new committed baselines",
    )
    parser.add_argument(
        "--list", action="store_true", help="list benchable scenarios and exit"
    )
    return parser


def _resolve_scenarios(names: Sequence[str]) -> List[str]:
    if not names:
        return list(DEFAULT_SCENARIOS)
    if list(names) == ["all"]:
        return list(benchable_scenarios())
    return list(names)


@survive_closed_stdout
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        print("Benchable scenarios:")
        for name in benchable_scenarios():
            print(f"  {name}")
        return 0

    if args.job_count < 1:
        parser.error("--job-count must be at least 1")

    measured = []
    for name in _resolve_scenarios(args.scenarios):
        try:
            measured.append(run_bench(name, job_count=args.job_count, seed=args.seed))
        except ValueError as error:
            parser.error(str(error))

    print(records_report(measured))

    if args.update:
        for record, _seconds in measured:
            print(f"baseline updated: {save_baseline(args.baseline_dir, record)}")
        return 0
    if not args.check:
        return 0
    print()
    exit_code = 0
    for record, _seconds in measured:
        failures = check_record(record, args.baseline_dir)
        if not failures:
            print(f"{record.scenario}: ok")
            continue
        exit_code = 1
        print(f"{record.scenario}: FAILED (if this record is intended, write it with --update)")
        for failure in failures:
            print(f"  {failure}")
    if exit_code:
        print("\nbenchmark gate FAILED", file=sys.stderr)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
