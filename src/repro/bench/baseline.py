"""Baseline storage and regression gating for benchmark records.

Baselines are committed ``BENCH_<scenario>.json`` files under
``benchmarks/baselines/``.  :func:`check_record` diffs a fresh
:class:`~repro.bench.runner.BenchRecord` against the committed baseline of
its scenario:

* no baseline — the record *bootstraps* one (written in place) and passes;
* a different metrics digest for the same pinned workload — the simulated
  outcomes changed, the gate fails on any host (refresh the baseline with
  ``--update`` when the change is intended);
* slower than baseline by more than the threshold — a **regression**, the
  gate fails;
* faster than baseline by more than the threshold — an **improvement**,
  reported (and worth committing as the new baseline via ``--update``);
* within the threshold either way — ok.

The digest is gated whenever the workload is the same (job count and seed):
it does not depend on the machine.  Wall-clock time is gated only against a
baseline measured on the same host fingerprint — comparing wall-clock across
different machines says nothing about the code — so gating it on CI requires
a baseline committed from a CI run (the workflow uploads every
``BENCH_*.json`` as an artifact for exactly that).  Events/second and peak
RSS are reported as notes only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.bench.runner import BenchRecord, load_record

#: Environment variable overriding the default baseline directory.
BASELINE_DIR_ENV = "REPRO_BENCH_BASELINE_DIR"

#: Default regression threshold (fraction of the baseline wall-clock).
DEFAULT_THRESHOLD = 0.15

#: Statuses a comparison can end in.
STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVEMENT = "improvement"
STATUS_BOOTSTRAPPED = "bootstrapped"
STATUS_DIGEST_CHANGED = "digest changed"


def default_baseline_dir() -> Path:
    """``$REPRO_BENCH_BASELINE_DIR`` or ``benchmarks/baselines`` (cwd-relative)."""
    override = os.environ.get(BASELINE_DIR_ENV)
    if override:
        return Path(override)
    return Path("benchmarks") / "baselines"


def parse_threshold(text: Union[str, float]) -> float:
    """Parse a threshold given as a fraction (``0.15``) or percentage (``15%``).

    Bare numbers above 1 are ambiguous (is ``15`` a 15% threshold or a
    1500% one?) and rejected with guidance rather than silently guessed.
    """
    explicit_percent = False
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        stripped = text.strip()
        if stripped.endswith("%"):
            explicit_percent = True
            value = float(stripped[:-1]) / 100.0
        else:
            value = float(stripped)
    if value > 1.0 and not explicit_percent:
        raise ValueError(
            f"ambiguous threshold {text!r}: write a percentage ('15%') or a "
            "fraction ('0.15')"
        )
    if value <= 0:
        raise ValueError(f"threshold must be positive, got {text!r}")
    return value


@dataclass
class Comparison:
    """Outcome of diffing one benchmark record against its baseline."""

    scenario: str
    status: str
    threshold: float
    current_wall: float
    baseline_wall: Optional[float] = None
    #: Relative wall-clock change vs the baseline (positive = slower).
    delta: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Whether this comparison should fail the gate."""
        return self.status in (STATUS_REGRESSION, STATUS_DIGEST_CHANGED)

    def describe(self) -> str:
        """One line suitable for CI logs."""
        if self.status == STATUS_BOOTSTRAPPED:
            return (
                f"{self.scenario}: no baseline found — bootstrapped one at "
                f"{self.current_wall:.3f}s"
            )
        assert self.baseline_wall is not None and self.delta is not None
        direction = "slower" if self.delta >= 0 else "faster"
        line = (
            f"{self.scenario}: {self.status} — {self.current_wall:.3f}s vs "
            f"baseline {self.baseline_wall:.3f}s "
            f"({abs(self.delta) * 100.0:.1f}% {direction}, "
            f"threshold {self.threshold * 100.0:.0f}%)"
        )
        for note in self.notes:
            line += f"\n  note: {note}"
        return line


def baseline_path(directory: Union[str, Path], scenario: str) -> Path:
    """The baseline file of *scenario* under *directory*."""
    return Path(directory) / f"BENCH_{scenario}.json"


def load_baseline(directory: Union[str, Path], scenario: str) -> Optional[BenchRecord]:
    """The committed baseline for *scenario*, or ``None`` if there is none."""
    path = baseline_path(directory, scenario)
    if not path.is_file():
        return None
    return load_record(path)


def save_baseline(directory: Union[str, Path], record: BenchRecord) -> Path:
    """Write *record* as the committed baseline of its scenario."""
    return record.write(Path(directory))


def compare_records(
    current: BenchRecord,
    baseline: BenchRecord,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> Comparison:
    """Diff *current* against *baseline* and classify the outcome."""
    baseline_wall = baseline.wall_clock_seconds
    delta = (
        (current.wall_clock_seconds - baseline_wall) / baseline_wall
        if baseline_wall > 0
        else 0.0
    )
    same_workload = (current.job_count, current.seed) == (
        baseline.job_count,
        baseline.seed,
    )
    # Same coarse machine fingerprint *and* same interpreter feature release:
    # "Linux-x86_64" alone would equate a dev box with every CI runner, and
    # interpreter feature releases (3.11 vs 3.12) differ measurably in
    # speed.  Micro releases do not, and comparing them exactly would
    # disarm the gate every time the runner image bumps a patch version.
    def _feature_release(version: str) -> str:
        return ".".join(version.split(".")[:2])

    same_host = (current.host, _feature_release(current.python_version)) == (
        baseline.host,
        _feature_release(baseline.python_version),
    )
    comparable = same_workload and same_host
    digest_changed = same_workload and current.metrics_digest != baseline.metrics_digest
    if digest_changed:
        # The same pinned workload simulated to different outcomes: the
        # code's behaviour changed, whatever the machine.
        status = STATUS_DIGEST_CHANGED
    elif not comparable:
        # Different pinned workloads time different work, and different
        # machines time the same work differently; neither a regression nor
        # an improvement can be concluded.
        status = STATUS_OK
    elif delta > threshold:
        status = STATUS_REGRESSION
    elif delta < -threshold:
        status = STATUS_IMPROVEMENT
    else:
        status = STATUS_OK

    notes: List[str] = []
    if current.cache_hits:
        notes.append(
            f"{current.cache_hits}/{current.runs} runs served from the result "
            "cache; timings measure the cache, not the simulator"
        )
    if not same_workload:
        notes.append(
            f"workload mismatch: current jobs={current.job_count} seed={current.seed}, "
            f"baseline jobs={baseline.job_count} seed={baseline.seed} — "
            "not gated; re-baseline with --update"
        )
    else:
        if not same_host:
            notes.append(
                f"host mismatch: current {current.host!r}/py{current.python_version}, "
                f"baseline {baseline.host!r}/py{baseline.python_version} — "
                "wall-clock not gated; commit a baseline measured on this host "
                "(e.g. the BENCH_*.json artifact from a CI run) to enable gating"
            )
        if digest_changed:
            notes.append(
                f"metrics digest changed ({baseline.metrics_digest[:12]} -> "
                f"{current.metrics_digest[:12]}): the simulated outcomes differ "
                "from the baseline; if the change is intended, refresh the "
                "baseline with --update"
            )
    if baseline.events_per_second > 0:
        eps_delta = (
            current.events_per_second - baseline.events_per_second
        ) / baseline.events_per_second
        notes.append(f"events/second: {eps_delta * 100.0:+.1f}% vs baseline")
    return Comparison(
        scenario=current.scenario,
        status=status,
        threshold=threshold,
        current_wall=current.wall_clock_seconds,
        baseline_wall=baseline_wall,
        delta=delta,
        notes=notes,
    )


def check_record(
    current: BenchRecord,
    *,
    directory: Union[str, Path, None] = None,
    threshold: float = DEFAULT_THRESHOLD,
    bootstrap: bool = True,
) -> Comparison:
    """Gate *current* against the committed baseline of its scenario.

    With no baseline on disk and ``bootstrap=True`` (the default), the record
    becomes the baseline — first runs pass cleanly instead of erroring — and
    the comparison reports ``bootstrapped``.  Records with cache hits are
    never written as baselines.
    """
    directory = Path(directory) if directory is not None else default_baseline_dir()
    baseline = load_baseline(directory, current.scenario)
    if baseline is None:
        comparison = Comparison(
            scenario=current.scenario,
            status=STATUS_BOOTSTRAPPED,
            threshold=threshold,
            current_wall=current.wall_clock_seconds,
        )
        if current.cache_hits:
            comparison.notes.append(
                "record has cache hits; not writing it as a baseline"
            )
        elif bootstrap:
            save_baseline(directory, current)
        else:
            comparison.notes.append("bootstrap disabled; no baseline written")
        return comparison
    return compare_records(current, baseline, threshold=threshold)
