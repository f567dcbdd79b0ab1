"""Ablation benchmarks on the design choices called out in DESIGN.md.

These sweeps go beyond the paper's figures: they quantify how sensitive the
results are to the knobs the paper mentions but does not vary (the
job-management approach, the malleability policy including related-work
baselines, the local-user threshold, the grow/shrink overhead, the placement
policy and the background load).  Each benchmark prints a summary table so
the trends can be read from the output.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import scenario_report

from _bench_env import bench_jobs, run_at_bench_seed

pytestmark = pytest.mark.bench  # deselected by default (see pyproject.toml); run with -m bench


def _jobs() -> int:
    # Ablations run several configurations; use a reduced job count.
    return max(40, bench_jobs() // 2)


def test_bench_ablation_approach(benchmark):
    """PRA versus PWA on the same high-load workload."""
    results = benchmark.pedantic(
        lambda: run_at_bench_seed("ablation-approach", _jobs()),
        rounds=1,
        iterations=1,
    )
    print("\n" + scenario_report("ablation-approach", results))
    summaries = {label: r.metrics.summary() for label, r in results.items()}
    pra = next(v for k, v in summaries.items() if k.startswith("PRA"))
    pwa = next(v for k, v in summaries.items() if k.startswith("PWA"))
    # PRA never shrinks; PWA may.  On a moderately loaded system the two
    # approaches otherwise behave similarly (the paper's own observation that
    # "if the system load is low ... PWA behaves like PRA").
    assert pra["shrink_messages"] == 0
    assert pra["mean_average_allocation"] >= 0.85 * pwa["mean_average_allocation"]
    for result in results.values():
        assert result.all_done


def test_bench_ablation_policies(benchmark):
    """FPSMA and EGS against the equipartition/folding baselines and no malleability."""
    results = benchmark.pedantic(
        lambda: run_at_bench_seed("ablation-policy", _jobs()),
        rounds=1,
        iterations=1,
    )
    print("\n" + scenario_report("ablation-policy", results))
    summaries = {label: r.metrics.summary() for label, r in results.items()}
    none = next(v for k, v in summaries.items() if k.startswith("no-malleability"))
    for label, summary in summaries.items():
        if label.startswith("no-malleability"):
            continue
        # Every malleability policy beats running the jobs at their initial size.
        assert summary["mean_execution_time"] < none["mean_execution_time"], label
        assert summary["mean_average_allocation"] > none["mean_average_allocation"], label


def test_bench_ablation_threshold(benchmark):
    """Effect of the per-cluster idle threshold reserved for local users."""
    results = benchmark.pedantic(
        lambda: run_at_bench_seed("ablation-threshold", _jobs()),
        rounds=1,
        iterations=1,
    )
    print("\n" + scenario_report("ablation-threshold", results))
    summaries = {label: r.metrics.summary() for label, r in results.items()}
    # A larger reserve leaves less room to grow.
    assert (
        summaries["threshold=32"]["mean_average_allocation"]
        <= summaries["threshold=0"]["mean_average_allocation"] + 1e-9
    )


def test_bench_ablation_overhead(benchmark):
    """Effect of the GRAM submission latency on the benefit of malleability."""
    results = benchmark.pedantic(
        lambda: run_at_bench_seed("ablation-overhead", _jobs()),
        rounds=1,
        iterations=1,
    )
    print("\n" + scenario_report("ablation-overhead", results))
    summaries = {label: r.metrics.summary() for label, r in results.items()}
    cheap = summaries["gram-latency=0s"]
    expensive = summaries["gram-latency=120s"]
    # Slower GRAM interactions mean jobs reach smaller sizes.
    assert expensive["mean_average_allocation"] <= cheap["mean_average_allocation"] + 1e-9


def test_bench_ablation_placement(benchmark):
    """Interaction between the placement policies and malleability."""
    results = benchmark.pedantic(
        lambda: run_at_bench_seed("ablation-placement", _jobs()),
        rounds=1,
        iterations=1,
    )
    print("\n" + scenario_report("ablation-placement", results))
    for label, result in results.items():
        assert result.metrics.unfinished_jobs == 0, label
        assert result.metrics.job_count == _jobs(), label


def test_bench_ablation_background(benchmark):
    """Resilience to background load submitted directly to the local RMs."""
    results = benchmark.pedantic(
        lambda: run_at_bench_seed("ablation-background", _jobs()),
        rounds=1,
        iterations=1,
    )
    print("\n" + scenario_report("ablation-background", results))
    summaries = {label: r.metrics.summary() for label, r in results.items()}
    # The resilience claim: every KOALA job still completes under heavy
    # background load, and mean execution times do not blow up relative to an
    # empty system (KOALA keeps finding processors for its malleable jobs).
    for label, result in results.items():
        assert result.all_done, label
    baseline = summaries["background=none"]["mean_execution_time"]
    assert summaries["background=60s"]["mean_execution_time"] < 1.5 * baseline
    assert summaries["background=300s"]["mean_execution_time"] < 1.5 * baseline
