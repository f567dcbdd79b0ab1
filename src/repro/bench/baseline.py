"""Committed baselines and the exact benchmark gate.

Baselines are ``BENCH_<scenario>.json`` files under ``benchmarks/baselines/``,
each one :class:`~repro.bench.runner.BenchRecord`.  :func:`check_record`
compares a fresh record with the baseline of its scenario field by field.
No field is timed, so the host's speed or load cannot move the verdict: a
missing baseline or any differing field fails the gate, and a change that
means to move a record refreshes its baseline with ``--update``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import List, Union

from repro.bench.runner import BenchRecord


def default_baseline_dir() -> Path:
    """``benchmarks/baselines``, relative to the working directory."""
    return Path("benchmarks") / "baselines"


def baseline_path(directory: Union[str, Path], scenario: str) -> Path:
    """The baseline file of *scenario* under *directory*."""
    return Path(directory) / f"BENCH_{scenario}.json"


def save_baseline(directory: Union[str, Path], record: BenchRecord) -> Path:
    """Write *record* as the committed baseline of its scenario."""
    path = baseline_path(directory, record.scenario)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(asdict(record), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def check_record(record: BenchRecord, directory: Union[str, Path]) -> List[str]:
    """Why *record* fails the gate against its baseline; empty when it passes.

    One ``field: baseline X, measured Y`` line per differing field, or one
    line naming the missing baseline file.
    """
    path = baseline_path(directory, record.scenario)
    if not path.is_file():
        return [f"no baseline at {path}"]
    baseline = json.loads(path.read_text(encoding="utf-8"))
    measured = asdict(record)
    return [
        f"{name}: baseline {baseline.get(name)}, measured {measured.get(name)}"
        for name in sorted(baseline.keys() | measured.keys())
        if baseline.get(name) != measured.get(name)
    ]
