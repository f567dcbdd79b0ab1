"""Command-line entry point: ``repro-bench``.

Runs registered scenarios at pinned seeds, writes machine-readable
``BENCH_<scenario>.json`` records, and optionally gates against the
committed baselines under ``benchmarks/baselines/``.

Examples
--------
Measure the Figure 7 sweep (the default scenario) and write
``BENCH_figure7.json`` into the current directory::

    repro-bench

Benchmark several scenarios at the paper's full size::

    repro-bench figure7 figure8 --job-count 300

Gate against the committed baselines, failing the process on a >15%
wall-clock regression (what CI runs on every PR)::

    repro-bench figure7 --job-count 40 --check --threshold 15%

Accept the current numbers as the new baselines (commit the result)::

    repro-bench figure7 --job-count 40 --update

Print the 25 hottest functions (by own time) of a scenario's sweep::

    repro-bench figure7 --job-count 40 --profile 25
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.bench.baseline import (
    check_record,
    default_baseline_dir,
    parse_threshold,
    save_baseline,
)
from repro.bench.runner import (
    BenchRecord,
    benchable_scenarios,
    profile_bench_data,
    profile_report,
    records_report,
    run_bench,
)
from repro.obs.log import survive_closed_stdout

#: Environment variables shared with the pytest benchmark harness.
JOBS_ENV = "REPRO_BENCH_JOBS"
SEED_ENV = "REPRO_BENCH_SEED"

#: Scenarios benchmarked when none is named: the paper's central sweep, the
#: trace-replay path (SWF ingestion + transformation), the fault sweep
#: (node churn + failure-aware scheduling + resilience metrics) and the
#: churn-replay combination (trace-driven submissions under node churn) —
#: together they cover every hot subsystem of the simulator.
DEFAULT_SCENARIOS = ("figure7", "trace-replay", "fault-sweep", "churn-replay")

#: Default job count for benchmark runs: large enough for a stable signal,
#: small enough for a CI gate on every PR.
DEFAULT_JOB_COUNT = 60


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``repro-bench``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run scenario benchmarks, write BENCH_<scenario>.json and "
        "gate against committed baselines.",
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
        default=None,
        help=f"jobs per workload (default: ${JOBS_ENV} or {DEFAULT_JOB_COUNT})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"pinned root seed (default: ${SEED_ENV} or 0)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory BENCH_<scenario>.json files are written to (default: .)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        help=f"committed-baseline directory (default: $REPRO_BENCH_BASELINE_DIR "
        f"or {default_baseline_dir()})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="diff against the committed baselines; exit 1 past the threshold "
        "(a missing baseline is bootstrapped and passes)",
    )
    parser.add_argument(
        "--threshold",
        default="15%",
        help="regression threshold for --check, e.g. '15%%' or '0.15' (default 15%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the measured records as the new committed baselines",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="serve repeat configurations from this result cache (off by "
        "default: benchmarks measure the simulator, not the cache)",
    )
    parser.add_argument(
        "--profile",
        type=int,
        default=None,
        metavar="N",
        help="profile each scenario under cProfile and print its top-N "
        "hotspots instead of benchmarking (cannot be combined with "
        "--check/--update: profiled timings are diagnostics, not "
        "measurements)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="with --profile: also write the hotspot data as JSON to FILE "
        "(a list with one entry per profiled scenario; '-' for stdout)",
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

    try:
        threshold = parse_threshold(args.threshold)
    except ValueError as error:
        parser.error(str(error))
        return 2  # pragma: no cover - parser.error raises

    job_count = (
        args.job_count
        if args.job_count is not None
        else int(os.environ.get(JOBS_ENV, DEFAULT_JOB_COUNT))
    )
    if job_count < 1:
        parser.error("--job-count must be at least 1")
        return 2  # pragma: no cover - parser.error raises
    seed = args.seed if args.seed is not None else int(os.environ.get(SEED_ENV, 0))
    baseline_dir = (
        args.baseline_dir if args.baseline_dir is not None else default_baseline_dir()
    )

    if args.profile_out is not None and args.profile is None:
        parser.error("--profile-out requires --profile")
        return 2  # pragma: no cover - parser.error raises

    if args.profile is not None:
        if args.check or args.update:
            parser.error(
                "--profile is a diagnostic and cannot gate or update baselines; "
                "drop --check/--update"
            )
            return 2  # pragma: no cover - parser.error raises
        if args.profile < 1:
            parser.error("--profile takes the number of hotspots to print (>= 1)")
            return 2  # pragma: no cover - parser.error raises
        profiles: List[dict] = []
        for name in _resolve_scenarios(args.scenarios):
            try:
                data = profile_bench_data(
                    name, job_count=job_count, seed=seed, top=args.profile
                )
            except ValueError as error:
                parser.error(str(error))
                return 2  # pragma: no cover - parser.error raises
            profiles.append(data)
            print(profile_report(data))
            print()
        if args.profile_out is not None:
            import json

            payload = json.dumps(profiles, indent=2, sort_keys=True)
            if args.profile_out == "-":
                print(payload)
            else:
                with open(args.profile_out, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
                print(f"wrote profile data for {len(profiles)} scenario(s) to {args.profile_out}")
        return 0

    records: List[BenchRecord] = []
    for name in _resolve_scenarios(args.scenarios):
        try:
            record = run_bench(
                name, job_count=job_count, seed=seed, cache=args.cache_dir
            )
        except ValueError as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises
        record.write(args.output_dir)
        records.append(record)

    print(records_report(records))

    exit_code = 0
    if args.update:
        for record in records:
            if record.cache_hits:
                print(
                    f"baseline NOT updated for {record.scenario}: "
                    f"{record.cache_hits}/{record.runs} runs came from the "
                    "result cache, so the timing does not measure the "
                    "simulator (re-run without --cache-dir)",
                    file=sys.stderr,
                )
                exit_code = 1
                continue
            path = save_baseline(baseline_dir, record)
            print(f"baseline updated: {path}")
    elif args.check:
        print()
        for record in records:
            if record.cache_hits:
                # A cache-served run times JSON loading, not the simulator:
                # it can neither prove nor clear a regression.
                print(
                    f"{record.scenario}: cannot gate — {record.cache_hits}/"
                    f"{record.runs} runs came from the result cache "
                    "(re-run --check without --cache-dir)",
                    file=sys.stderr,
                )
                exit_code = 1
                continue
            comparison = check_record(
                record, directory=baseline_dir, threshold=threshold
            )
            print(comparison.describe())
            if comparison.failed:
                exit_code = 1
        if exit_code:
            print(
                "\nbenchmark regression gate FAILED "
                f"(threshold {threshold * 100.0:.0f}%)",
                file=sys.stderr,
            )
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
