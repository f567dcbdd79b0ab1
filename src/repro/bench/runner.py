"""Counted benchmark runs over the scenario registry.

:func:`run_bench` runs one registered scenario at a pinned seed and job
count — serially and without the result cache — and returns a
:class:`BenchRecord`: the kernel events the runs processed and a digest over
the simulated metrics.  Neither is timed, so the gate in
:mod:`repro.bench.baseline` compares them exactly.  The
wall-clock seconds of the run are returned beside the record for the report
table; they are never stored or compared.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.scenarios import get_scenario, iter_scenarios, run_scenario
from repro.experiments.setup import ExperimentResult

#: Schema version of the ``BENCH_*.json`` files.
BENCH_FORMAT = 1


def benchable_scenarios() -> Tuple[str, ...]:
    """Names of the registered scenarios that sweep configurations.

    Static scenarios (Figure 6's scaling curves, Table I) render a report
    without running the simulator, so there is nothing to benchmark.
    """
    return tuple(spec.name for spec in iter_scenarios() if not spec.is_static)


@dataclass(frozen=True)
class BenchRecord:
    """What one benchmark run of a scenario did (the ``BENCH_*.json`` payload)."""

    scenario: str
    job_count: int
    seed: int
    runs: int
    events_processed: int
    metrics_digest: str
    format: int = BENCH_FORMAT


def metrics_digest(results: Dict[str, ExperimentResult]) -> str:
    """SHA-256 over the labelled metrics of a scenario run.

    Stable across processes and caching (see
    :meth:`~repro.metrics.collector.ExperimentMetrics.to_dict`), so two
    kernels producing the same digest simulated exactly the same outcomes.
    """
    digest = hashlib.sha256()
    for label in sorted(results):
        digest.update(label.encode())
        digest.update(
            json.dumps(results[label].metrics.to_dict(), sort_keys=True).encode()
        )
    return digest.hexdigest()


def run_bench(
    scenario: str,
    *,
    job_count: Optional[int] = None,
    seed: int = 0,
) -> Tuple[BenchRecord, float]:
    """Run *scenario* once and return its record and the seconds the run took.

    A scenario with a ``bench`` hook (the sharded replay) is run through the
    hook; every other one through one serial, uncached :func:`run_scenario`
    call.
    """
    spec = get_scenario(scenario)
    if spec.is_static:
        raise ValueError(
            f"scenario {scenario!r} is static (report-only) and cannot be benchmarked"
        )
    job_count = int(job_count) if job_count is not None else spec.default_job_count
    started = time.perf_counter()
    if spec.bench is not None:
        measured = spec.bench(job_count=job_count, seed=int(seed))
    else:
        results = run_scenario(spec, job_count=job_count, seed=int(seed), jobs=1, cache=None)
        measured = {
            "runs": len(results),
            "events_processed": sum(result.events_processed for result in results.values()),
            "metrics_digest": metrics_digest(results),
        }
    seconds = time.perf_counter() - started
    record = BenchRecord(
        scenario=spec.name,
        job_count=job_count,
        seed=int(seed),
        runs=int(measured["runs"]),
        events_processed=int(measured["events_processed"]),
        metrics_digest=str(measured["metrics_digest"]),
    )
    return record, seconds


def records_report(measured: List[Tuple[BenchRecord, float]]) -> str:
    """Plain-text table of benchmark records and their wall-clock seconds."""
    lines = [f"{'scenario':<20} {'runs':>4} {'jobs':>7} {'events':>9} {'wall (s)':>9}"]
    for record, seconds in measured:
        lines.append(
            f"{record.scenario:<20} {record.runs:>4} {record.job_count:>7} "
            f"{record.events_processed:>9} {seconds:>9.3f}"
        )
    return "\n".join(lines)
