"""Shared configuration of the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints
the corresponding rows/series, so the qualitative comparison with the paper
can be read straight from the benchmark output.

The experiments default to a reduced job count so the whole harness runs in a
few minutes; set ``REPRO_BENCH_JOBS=300`` (the paper's size) for full-scale
runs and ``REPRO_BENCH_SEED`` to change the seed.  The knobs themselves live
in :mod:`_bench_env` so benchmark modules can import them by name.
"""

from __future__ import annotations

import pytest

from _bench_env import bench_jobs, bench_procs, bench_seed, run_at_bench_seed

__all__ = ["bench_jobs", "bench_procs", "bench_seed"]


@pytest.fixture(scope="session")
def figure7_results():
    """The four Figure 7 runs, shared by all Figure 7 panel benchmarks."""
    return run_at_bench_seed("figure7", bench_jobs(), jobs=bench_procs())


@pytest.fixture(scope="session")
def figure8_results():
    """The four Figure 8 runs, shared by all Figure 8 panel benchmarks."""
    return run_at_bench_seed("figure8", bench_jobs(), jobs=bench_procs())
