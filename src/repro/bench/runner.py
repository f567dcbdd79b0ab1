"""Measured benchmark runs over the scenario registry.

:func:`run_bench` executes one registered scenario at a pinned seed and job
count — serially, so the numbers mean something — and returns a
:class:`BenchRecord` with everything a regression gate needs: wall-clock
time, kernel events processed (and the derived events/second), peak RSS, how
many runs were served from the result cache, the code-version digest the
cache uses, and a digest over the produced metrics (so a perf refactor can
prove it did not change a single simulated outcome).
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.engine import ResultCache, code_version
from repro.experiments.scenarios import get_scenario, iter_scenarios
from repro.experiments.setup import ExperimentResult, build_workload, run_experiment
from repro.sim.rng import RandomStreams
from repro.workloads.spec import WorkloadSpec

#: Schema version of the ``BENCH_*.json`` files.
BENCH_FORMAT = 1


def peak_rss_bytes() -> int:
    """Peak resident set size of this process in bytes (0 if unavailable).

    This is the process-wide high watermark: when one ``repro-bench``
    invocation benchmarks several scenarios, later records include the peak
    of everything run before them.  Treat the value as an upper bound (it is
    reported, never gated); measure scenarios in separate invocations when
    an exact per-scenario peak matters.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def benchable_scenarios() -> Tuple[str, ...]:
    """Names of the registered scenarios that sweep configurations.

    Static scenarios (Figure 6's scaling curves, Table I) render a report
    without running the simulator, so there is nothing to benchmark.
    """
    return tuple(spec.name for spec in iter_scenarios() if not spec.is_static)


@dataclass
class BenchRecord:
    """One measured benchmark run of a scenario (the ``BENCH_*.json`` payload)."""

    scenario: str
    job_count: int
    seed: int
    runs: int
    wall_clock_seconds: float
    events_processed: int
    events_per_second: float
    peak_rss_bytes: int
    cache_hits: int
    code_version: str
    metrics_digest: str
    python_version: str = field(default_factory=platform.python_version)
    #: Coarse machine fingerprint; wall-clock comparisons across different
    #: hosts are reported but never gated (see ``repro.bench.baseline``).
    host: str = field(default_factory=lambda: f"{platform.system()}-{platform.machine()}")
    format: int = BENCH_FORMAT

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchRecord":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = cls.__dataclass_fields__
        return cls(**{key: value for key, value in data.items() if key in known})

    @property
    def file_name(self) -> str:
        """Canonical file name of this record (``BENCH_<scenario>.json``)."""
        return f"BENCH_{self.scenario}.json"

    def write(self, directory: Union[str, Path]) -> Path:
        """Write the record to ``<directory>/BENCH_<scenario>.json``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / self.file_name
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


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
    cache: Union[ResultCache, str, Path, None] = None,
) -> BenchRecord:
    """Run *scenario* once, measured, and return its :class:`BenchRecord`.

    The configurations are executed serially in this process (never fanned
    out), so wall-clock and events/second are comparable across runs; the
    timed windows cover only :func:`run_experiment` itself, never cache
    probing or cache writes.  With *cache* given, cached results are used
    and counted in ``cache_hits`` — a record with cache hits measures the
    cache, not the simulator, and the regression gate refuses both to gate
    it and to treat it as a baseline.
    """
    spec = get_scenario(scenario)
    if spec.is_static:
        raise ValueError(
            f"scenario {scenario!r} is static (report-only) and cannot be benchmarked"
        )
    if spec.bench is not None:
        # The scenario measures itself through a custom hook (e.g. the
        # sharded-replay engine) instead of sweeping run_experiment.
        jobs = int(job_count) if job_count is not None else spec.default_job_count
        measured = spec.bench(job_count=jobs, seed=int(seed))
        wall = float(measured["wall_clock_seconds"])
        events = int(measured["events_processed"])
        return BenchRecord(
            scenario=spec.name,
            job_count=jobs,
            seed=int(seed),
            runs=int(measured.get("runs", 1)),
            wall_clock_seconds=wall,
            events_processed=events,
            events_per_second=events / wall if wall > 0 else 0.0,
            peak_rss_bytes=peak_rss_bytes(),
            cache_hits=0,
            code_version=code_version(),
            metrics_digest=str(measured["metrics_digest"]),
        )
    pairs = spec.expand(job_count=job_count, seed=seed)
    store = (
        cache
        if isinstance(cache, ResultCache) or cache is None
        else ResultCache(cache)
    )

    # Only the simulator is inside the timed windows: cache probing and
    # cache writes are I/O whose cost must not pollute the gated wall-clock.
    #
    # A scenario's configurations replay the same workload against different
    # policies (exactly the paper's methodology), so the specification is
    # built once per distinct ``(workload, seed, job_count)`` — inside a
    # timed window, like every other piece of work the sweep needs — and the
    # frozen spec is shared across the runs.
    results: Dict[str, ExperimentResult] = {}
    workloads: Dict[Tuple[str, int, int], WorkloadSpec] = {}
    cache_hits = 0
    wall_clock = 0.0
    for label, config in pairs:
        cached = store.load(config) if store is not None else None
        if cached is not None:
            cache_hits += 1
            results[label] = cached
            continue
        key = (config.workload, config.seed, config.job_count)
        started = time.perf_counter()
        workload = workloads.get(key)
        if workload is None:
            workloads[key] = workload = build_workload(
                config, RandomStreams(seed=config.seed)
            )
        result = run_experiment(config, workload=workload)
        wall_clock += time.perf_counter() - started
        if store is not None:
            store.store(result)
        results[label] = result

    events = sum(result.events_processed for result in results.values())
    return BenchRecord(
        scenario=spec.name,
        job_count=int(job_count) if job_count is not None else spec.default_job_count,
        seed=int(seed),
        runs=len(pairs),
        wall_clock_seconds=wall_clock,
        events_processed=events,
        events_per_second=events / wall_clock if wall_clock > 0 else 0.0,
        peak_rss_bytes=peak_rss_bytes(),
        cache_hits=cache_hits,
        code_version=code_version(),
        metrics_digest=metrics_digest(results),
    )


def load_record(path: Union[str, Path]) -> BenchRecord:
    """Read a ``BENCH_*.json`` file back into a :class:`BenchRecord`."""
    return BenchRecord.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def records_report(records: List[BenchRecord]) -> str:
    """Plain-text table of measured benchmark records."""
    lines = [
        f"{'scenario':<20} {'runs':>4} {'jobs':>5} {'wall (s)':>9} "
        f"{'events':>9} {'events/s':>10} {'peak RSS':>9} {'cached':>6}"
    ]
    for record in records:
        lines.append(
            f"{record.scenario:<20} {record.runs:>4} {record.job_count:>5} "
            f"{record.wall_clock_seconds:>9.3f} {record.events_processed:>9} "
            f"{record.events_per_second:>10.0f} "
            f"{record.peak_rss_bytes / 1e6:>7.1f}MB {record.cache_hits:>6}"
        )
    return "\n".join(lines)
