"""Figure 8 — FPSMA versus EGS under the PWA approach (growing and shrinking).

The PWA experiments use the high-load workloads W'm and W'mr (30-second
inter-arrival) on a heavily loaded testbed; the benchmarks reproduce the six
panels and assert the paper's qualitative findings for this regime.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.experiments.scenarios import figure7_scenario, figure8_scenario, scenario_report
from repro.metrics.reports import cdf_probe_table, comparison_table

from _bench_env import bench_jobs, run_at_bench_seed

pytestmark = pytest.mark.bench  # deselected by default (see pyproject.toml); run with -m bench


def test_bench_figure8_experiments(benchmark):
    """Time the full set of four Figure 8 scheduler runs and print the report."""
    results = benchmark.pedantic(
        lambda: run_at_bench_seed("figure8", bench_jobs()),
        rounds=1,
        iterations=1,
    )
    print()
    print(scenario_report("figure8", results))
    assert all(result.all_done for result in results.values())


def _metrics(results):
    return {label: result.metrics for label, result in results.items()}


def test_bench_figure8a_average_processors(benchmark, figure8_results):
    metrics = _metrics(figure8_results)
    table = benchmark(
        lambda: cdf_probe_table(
            metrics,
            "average_allocation",
            probes=[2, 4, 6, 10, 15, 20, 30, 40],
            title="Figure 8(a) - % of jobs with average processors <= x",
        )
    )
    print("\n" + table)
    # Under the overloaded W' workloads most jobs stay near their minimal size.
    for label, m in metrics.items():
        small = m.average_allocation_cdf().percent_at_or_below(6)
        assert small >= 50.0, label


def test_bench_figure8b_maximum_processors(benchmark, figure8_results):
    metrics = _metrics(figure8_results)
    table = benchmark(
        lambda: cdf_probe_table(
            metrics,
            "maximum_allocation",
            probes=[2, 4, 8, 16, 24, 32, 46],
            title="Figure 8(b) - % of jobs with maximum processors <= x",
        )
    )
    print("\n" + table)
    # Jobs grow far less than under PRA: hardly anyone reaches the maximum.
    for label, m in metrics.items():
        at_max = 100.0 - m.maximum_allocation_cdf().percent_at_or_below(31)
        assert at_max < 20.0, label


def test_bench_figure8c_execution_times(benchmark, figure8_results):
    metrics = _metrics(figure8_results)
    table = benchmark(
        lambda: cdf_probe_table(
            metrics,
            "execution_time",
            probes=[60, 120, 200, 300, 400, 600, 800, 1000],
            title="Figure 8(c) - % of jobs with execution time <= x seconds",
        )
    )
    print("\n" + table)
    # Execution times cluster close to the minimum-size execution times and
    # the four configurations are much closer together than under PRA.
    means = [m.execution_time_cdf().mean for m in metrics.values()]
    assert max(means) / min(means) < 1.35
    gadget = metrics["FPSMA/W'm"].select(profile="gadget2")
    assert np.mean([j.execution_time for j in gadget]) > 400.0


def test_bench_figure8d_response_times(benchmark, figure8_results):
    metrics = _metrics(figure8_results)
    table = benchmark(
        lambda: cdf_probe_table(
            metrics,
            "response_time",
            probes=[60, 120, 200, 300, 400, 600, 800, 1000],
            title="Figure 8(d) - % of jobs with response time <= x seconds",
        )
    )
    print("\n" + table)
    for label, m in metrics.items():
        assert m.response_time_cdf().mean >= m.execution_time_cdf().mean, label


def test_bench_figure8e_utilization(benchmark, figure8_results):
    metrics = _metrics(figure8_results)
    horizon = max(r.workload_duration for r in figure8_results.values())

    def build():
        fractions = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0)
        probes = [horizon * f for f in fractions]
        series = {
            label: list(
                m.utilization_over(0.0, horizon, samples=200)[1][[int(f * 199) for f in fractions]]
            )
            for label, m in metrics.items()
        }
        return comparison_table(
            series,
            probes,
            title="Figure 8(e) - busy processors at selected times",
            probe_header="time (s)",
        )

    print("\n" + benchmark(build))
    # The high-load workloads keep more KOALA processors busy than the
    # corresponding Figure 7 workloads would at the same point in time.
    for label, m in metrics.items():
        assert m.peak_utilization() >= 20.0, label


def test_bench_figure8f_malleability_operations(benchmark, figure8_results):
    metrics = _metrics(figure8_results)

    def totals():
        return {
            label: (m.total_grow_messages, m.total_shrink_messages)
            for label, m in metrics.items()
        }

    counts = benchmark(totals)
    print("\nFigure 8(f) - malleability operations per configuration (grow, shrink)")
    for label, (grow, shrink) in counts.items():
        print(f"  {label:12s} grow={grow} shrink={shrink}")
    # EGS remains the more talkative policy, and PWA actually shrinks jobs
    # (unlike PRA) while the all-malleable workload sees more activity.
    assert counts["EGS/W'm"][0] > counts["FPSMA/W'm"][0]
    assert counts["FPSMA/W'm"][0] > counts["FPSMA/W'mr"][0]
    total_shrinks = sum(shrink for _, shrink in counts.values())
    assert total_shrinks >= 1


def test_bench_figure8_vs_figure7_slowdown(benchmark):
    """Cross-figure comparison: the PWA/W' runs slow GADGET-2 down relative to
    the PRA/W runs (the paper quotes roughly +30%)."""
    jobs = max(60, bench_jobs() // 2)

    def run_both():
        pra = run_at_bench_seed(figure7_scenario((("FPSMA", "Wm"),)), jobs)
        pwa = run_at_bench_seed(figure8_scenario((("FPSMA", "W'm"),)), jobs)
        return pra["FPSMA/Wm"].metrics, pwa["FPSMA/W'm"].metrics

    pra_metrics, pwa_metrics = benchmark.pedantic(run_both, rounds=1, iterations=1)
    pra_gadget = np.mean([j.execution_time for j in pra_metrics.select(profile="gadget2")])
    pwa_gadget = np.mean([j.execution_time for j in pwa_metrics.select(profile="gadget2")])
    slowdown = pwa_gadget / pra_gadget
    print(f"\nGADGET-2 mean execution time: PRA/Wm {pra_gadget:.0f}s, "
          f"PWA/W'm {pwa_gadget:.0f}s (slowdown x{slowdown:.2f}; paper reports ~1.3)")
    assert slowdown > 1.0
