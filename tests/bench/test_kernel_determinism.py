"""Determinism of the fast-path kernel across execution modes.

The pooled-Timeout kernel must not change a single simulated outcome:
figure 7 and figure 8 sweeps produce byte-identical metrics whether the
configurations run serially in this process or fanned out over worker
subprocesses, and repeated runs are byte-identical to each other (the pool
is per-environment, so no state can leak between runs).  Figure 6 is a
static report; it must render identically on repeated builds.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.scenarios import run_scenario, scenario_report


def sweep_digest(results) -> str:
    return json.dumps(
        {label: result.metrics.to_dict() for label, result in sorted(results.items())},
        sort_keys=True,
    )


@pytest.mark.parametrize("scenario", ["figure7", "figure8"])
def test_serial_and_parallel_sweeps_are_byte_identical(scenario):
    serial = run_scenario(scenario, job_count=8, seed=0, jobs=1, cache=None)
    parallel = run_scenario(scenario, job_count=8, seed=0, jobs=2, cache=None)
    assert sweep_digest(serial) == sweep_digest(parallel)


@pytest.mark.parametrize("scenario", ["figure7", "figure8"])
def test_repeated_serial_runs_are_byte_identical(scenario):
    first = run_scenario(scenario, job_count=6, seed=0, jobs=1, cache=None)
    second = run_scenario(scenario, job_count=6, seed=0, jobs=1, cache=None)
    assert sweep_digest(first) == sweep_digest(second)
    # And the runs processed the same number of kernel events.
    assert {label: r.events_processed for label, r in first.items()} == {
        label: r.events_processed for label, r in second.items()
    }


def test_figure6_report_is_stable():
    assert scenario_report("figure6") == scenario_report("figure6")


@pytest.mark.parametrize("scenario", ["figure7", "fault-sweep", "churn-replay"])
def test_parallel_workers_fire_the_same_kernel_events(scenario):
    """Worker subprocesses simulate exactly what the parent would.

    Beyond equal metrics, every configuration must fire the same number of
    kernel events — including under fault injection and trace replay with
    node churn, whose extra event sources a worker builds on its own.
    """
    serial = run_scenario(scenario, job_count=8, seed=0, jobs=1, cache=None)
    parallel = run_scenario(scenario, job_count=8, seed=0, jobs=2, cache=None)
    assert sweep_digest(serial) == sweep_digest(parallel)
    assert {label: r.events_processed for label, r in serial.items()} == {
        label: r.events_processed for label, r in parallel.items()
    }
