"""Smoke tests of the ablation sweeps (reduced sizes).

The full sweeps run as benchmarks; these tests exercise the same code paths
with tiny workloads so regressions in the ablation scenarios are caught by
the ordinary test suite.
"""

from __future__ import annotations

from repro.experiments.scenarios import (
    overhead_ablation_scenario,
    policy_ablation_scenario,
    reconfiguration_cost_ablation_scenario,
    run_scenario,
    scenario_report,
    strip_seed_suffix,
    threshold_ablation_scenario,
)


def _bare_labels(results):
    """One seed's *results* keyed by the bare variant labels."""
    return {strip_seed_suffix(label): result for label, result in results.items()}


def test_policy_ablation_includes_baselines_and_no_malleability():
    spec = policy_ablation_scenario(policies=("FPSMA", "EQUIPARTITION", None))
    results = _bare_labels(run_scenario(spec, job_count=8, seed=1))
    assert set(results) == {"FPSMA/Wm", "EQUIPARTITION/Wm", "no-malleability/Wm"}
    for label, result in results.items():
        assert result.all_done, label
    none = results["no-malleability/Wm"].metrics
    assert none.total_grow_messages == 0
    report = scenario_report(spec, results)
    assert "Ablation study: policy" in report and "no-malleability/Wm" in report


def test_approach_ablation_runs_both_approaches():
    results = _bare_labels(run_scenario("ablation-approach", job_count=8, seed=1))
    assert len(results) == 2
    labels = sorted(results)
    assert labels[0].startswith("PRA") and labels[1].startswith("PWA")
    pra = next(r for label, r in results.items() if label.startswith("PRA"))
    assert pra.metrics.total_shrink_messages == 0


def test_threshold_ablation_monotone_in_threshold():
    spec = threshold_ablation_scenario(thresholds=(0, 64))
    results = _bare_labels(run_scenario(spec, job_count=8, seed=1))
    small = results["threshold=0"].metrics.summary()["mean_average_allocation"]
    large = results["threshold=64"].metrics.summary()["mean_average_allocation"]
    # Reserving 64 processors per cluster leaves essentially nothing to grow into.
    assert large <= small + 1e-9


def test_overhead_ablation_runs_all_latencies():
    spec = overhead_ablation_scenario(submission_latencies=(0.0, 60.0))
    results = _bare_labels(run_scenario(spec, job_count=6, seed=1))
    assert set(results) == {"gram-latency=0s", "gram-latency=60s"}
    for result in results.values():
        assert result.all_done


def test_reconfiguration_cost_ablation_slows_growers_down():
    spec = reconfiguration_cost_ablation_scenario(costs=(0.0, 120.0))
    results = _bare_labels(run_scenario(spec, job_count=6, seed=1))
    cheap = results["reconfig-cost=0s"].metrics.summary()["mean_execution_time"]
    expensive = results["reconfig-cost=120s"].metrics.summary()["mean_execution_time"]
    assert expensive >= cheap - 1e-9
