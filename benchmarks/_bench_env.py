"""Environment knobs of the benchmark harness.

Importable by name from the benchmark modules (``from _bench_env import
bench_jobs``) — a plain ``from conftest import ...`` is fragile under
pytest's prepend import mode, where several ``conftest.py`` files across the
test tree compete for the same module name on ``sys.path``.
"""

from __future__ import annotations

import os


def bench_jobs(default: int = 120) -> int:
    """Number of jobs per workload used by the benchmark experiments."""
    return int(os.environ.get("REPRO_BENCH_JOBS", default))


def bench_seed() -> int:
    """Root seed used by the benchmark experiments."""
    return int(os.environ.get("REPRO_BENCH_SEED", 0))


def bench_procs() -> int:
    """Worker processes used for the shared figure sweeps.

    The timed benchmarks stay serial so the numbers mean something; the
    session-scoped fixtures in ``conftest.py`` only *prepare* results, so
    they may fan out (``REPRO_BENCH_PROCS=4``) to cut harness wall-clock.
    """
    return int(os.environ.get("REPRO_BENCH_PROCS", 1))


def run_at_bench_seed(scenario, job_count: int, *, jobs: int = 1):
    """Run *scenario* (a name or a spec) at the bench seed.

    The results are keyed by the bare variant labels the assertions use: one
    seed ran, so stripping the ``@seed<N>`` suffix of a non-default
    ``REPRO_BENCH_SEED`` keeps them unique.
    """
    from repro.experiments.scenarios import run_scenario, strip_seed_suffix

    results = run_scenario(scenario, job_count=job_count, seed=bench_seed(), jobs=jobs)
    return {strip_seed_suffix(label): result for label, result in results.items()}
