"""The exact benchmark gate: counted scenario runs against committed baselines.

* :mod:`repro.bench.runner` runs registry scenarios at pinned seeds and
  produces :class:`~repro.bench.runner.BenchRecord`\\ s: the kernel events
  processed and a digest over the simulated metrics, neither of them
  timed.
* :mod:`repro.bench.baseline` compares a record with the committed baseline
  under ``benchmarks/baselines/`` field by field.
* :mod:`repro.bench.cli` is the ``repro-bench`` command line; CI runs
  ``repro-bench --check`` on every PR.

Performance itself is measured by ``perfbench/``, in alternating runs of a
parent and a change; nothing here compares wall-clock time.
"""

from repro.bench.baseline import check_record, default_baseline_dir, save_baseline
from repro.bench.runner import (
    BenchRecord,
    benchable_scenarios,
    metrics_digest,
    run_bench,
)

__all__ = [
    "BenchRecord",
    "benchable_scenarios",
    "check_record",
    "default_baseline_dir",
    "metrics_digest",
    "run_bench",
    "save_baseline",
]
