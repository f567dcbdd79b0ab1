"""Figure 7 — FPSMA versus EGS under the PRA approach (no shrinking).

``test_bench_figure7_experiments`` runs and times the four scheduler runs
(FPSMA/EGS x Wm/Wmr); the per-panel benchmarks extract and print each panel's
series from the shared results and assert the paper's qualitative findings.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.experiments.scenarios import scenario_report
from repro.metrics.reports import cdf_probe_table, comparison_table

from _bench_env import bench_jobs, run_at_bench_seed

pytestmark = pytest.mark.bench  # deselected by default (see pyproject.toml); run with -m bench


def test_bench_figure7_experiments(benchmark):
    """Time the full set of four Figure 7 scheduler runs and print the report."""
    results = benchmark.pedantic(
        lambda: run_at_bench_seed("figure7", bench_jobs()),
        rounds=1,
        iterations=1,
    )
    print()
    print(scenario_report("figure7", results))
    assert all(result.all_done for result in results.values())


def _metrics(results):
    return {label: result.metrics for label, result in results.items()}


def test_bench_figure7a_average_processors(benchmark, figure7_results):
    metrics = _metrics(figure7_results)
    table = benchmark(
        lambda: cdf_probe_table(
            metrics,
            "average_allocation",
            probes=[2, 5, 10, 15, 20, 25, 30],
            title="Figure 7(a) - % of jobs with average processors <= x",
        )
    )
    print("\n" + table)
    # Wm jobs end up with more processors on average than Wmr jobs.
    for policy in ("FPSMA", "EGS"):
        wm = metrics[f"{policy}/Wm"].average_allocation_cdf().mean
        wmr = metrics[f"{policy}/Wmr"].average_allocation_cdf().mean
        assert wm > wmr


def test_bench_figure7b_maximum_processors(benchmark, figure7_results):
    metrics = _metrics(figure7_results)
    table = benchmark(
        lambda: cdf_probe_table(
            metrics,
            "maximum_allocation",
            probes=[2, 4, 8, 16, 24, 32, 40, 46],
            title="Figure 7(b) - % of jobs with maximum processors <= x",
        )
    )
    print("\n" + table)
    # With the all-malleable workload, fewer jobs stay at their initial size
    # than with the half-rigid one.
    for policy in ("FPSMA", "EGS"):
        wm_stuck = metrics[f"{policy}/Wm"].maximum_allocation_cdf().percent_at_or_below(2)
        wmr_stuck = metrics[f"{policy}/Wmr"].maximum_allocation_cdf().percent_at_or_below(2)
        assert wm_stuck < wmr_stuck


def test_bench_figure7c_execution_times(benchmark, figure7_results):
    metrics = _metrics(figure7_results)
    table = benchmark(
        lambda: cdf_probe_table(
            metrics,
            "execution_time",
            probes=[60, 120, 200, 300, 400, 600, 800, 1200],
            title="Figure 7(c) - % of jobs with execution time <= x seconds",
        )
    )
    print("\n" + table)
    # Malleability pays off: Wm executions are faster than Wmr executions,
    # and the two application populations are clearly separated (FT < 200 s,
    # GADGET-2 > 200 s), as in the paper.
    for policy in ("FPSMA", "EGS"):
        assert (
            metrics[f"{policy}/Wm"].execution_time_cdf().mean
            < metrics[f"{policy}/Wmr"].execution_time_cdf().mean
        )
    wm = metrics["EGS/Wm"]
    ft_times = [j.execution_time for j in wm.select(profile="ft")]
    gadget_times = [j.execution_time for j in wm.select(profile="gadget2")]
    assert np.mean(ft_times) < np.mean(gadget_times)


def test_bench_figure7d_response_times(benchmark, figure7_results):
    metrics = _metrics(figure7_results)
    table = benchmark(
        lambda: cdf_probe_table(
            metrics,
            "response_time",
            probes=[60, 120, 200, 300, 400, 600, 800, 1200],
            title="Figure 7(d) - % of jobs with response time <= x seconds",
        )
    )
    print("\n" + table)
    for policy in ("FPSMA", "EGS"):
        assert (
            metrics[f"{policy}/Wm"].response_time_cdf().mean
            < metrics[f"{policy}/Wmr"].response_time_cdf().mean
        )


def test_bench_figure7e_utilization(benchmark, figure7_results):
    metrics = _metrics(figure7_results)
    horizon = max(r.workload_duration for r in figure7_results.values())

    def build():
        fractions = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0)
        probes = [horizon * f for f in fractions]
        series = {
            label: list(m.utilization_over(0.0, horizon, samples=200)[1][[int(f * 199) for f in fractions]])
            for label, m in metrics.items()
        }
        return comparison_table(
            series, probes, title="Figure 7(e) - busy processors at selected times",
            probe_header="time (s)",
        )

    print("\n" + benchmark(build))
    # The all-malleable workload keeps more processors busy than the mixed one.
    for policy in ("FPSMA", "EGS"):
        wm_mean = metrics[f"{policy}/Wm"].mean_utilization(0.0, horizon)
        wmr_mean = metrics[f"{policy}/Wmr"].mean_utilization(0.0, horizon)
        assert wm_mean > wmr_mean


def test_bench_figure7f_grow_activity(benchmark, figure7_results):
    metrics = _metrics(figure7_results)

    def totals():
        return {label: m.total_grow_messages for label, m in metrics.items()}

    counts = benchmark(totals)
    print("\nFigure 7(f) - total grow messages per configuration")
    for label, count in counts.items():
        print(f"  {label:12s} {count}")
    # EGS sends more grow messages than FPSMA, and Wm more than Wmr.
    assert counts["EGS/Wm"] > counts["FPSMA/Wm"]
    assert counts["FPSMA/Wm"] > counts["FPSMA/Wmr"]
    assert counts["EGS/Wm"] > counts["EGS/Wmr"]
    # PRA never shrinks.
    assert all(m.total_shrink_messages == 0 for m in metrics.values())
