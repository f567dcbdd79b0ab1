"""Regression tests of the paper's figures: each one's qualitative shape.

These tests run reduced versions of the paper's experiments (fewer jobs, one
seed) and assert the *relationships* the paper reports, not absolute numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figure6 import (
    figure6_report,
    figure6_table,
    run_figure6,
    simulate_execution_time,
)
from repro.experiments.scenarios import run_scenario, scenario_report, strip_seed_suffix
from repro.apps import ft_profile, gadget2_profile


def _bare_labels(results):
    """One seed's *results* keyed by the bare legend labels."""
    return {strip_seed_suffix(label): result for label, result in results.items()}


# ---------------------------------------------------------------------------
# Figure 6 — application scaling curves
# ---------------------------------------------------------------------------


def test_figure6_curves_match_the_papers_anchor_points():
    table = figure6_table(run_figure6())
    ft, gadget = table["ft"], table["gadget2"]
    # ~2 minutes for FT and ~10 minutes for GADGET-2 on 2 machines.
    assert ft[2] == pytest.approx(120.0)
    assert gadget[2] == pytest.approx(600.0)
    # Best times: ~1 minute for FT, ~4 minutes for GADGET-2.
    assert min(ft.values()) == pytest.approx(60.0)
    assert min(gadget.values()) == pytest.approx(240.0)
    # Curves are non-increasing in the number of machines.
    for curve in (ft, gadget):
        sizes = sorted(curve)
        assert all(curve[b] <= curve[a] + 1e-9 for a, b in zip(sizes, sizes[1:]))


def test_figure6_simulated_execution_matches_the_model():
    """Running the application model inside the simulator reproduces the
    profile's execution times exactly (no reconfigurations involved)."""
    for profile, machines in ((ft_profile(), 8), (gadget2_profile(), 24)):
        simulated = simulate_execution_time(profile, machines)
        assert simulated == pytest.approx(profile.execution_time(machines))


def test_figure6_report_renders_both_applications():
    report = figure6_report()
    assert "Figure 6" in report
    assert "ft" in report and "gadget2" in report


# ---------------------------------------------------------------------------
# Figure 7 — PRA approach (reduced size)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure7_results():
    return _bare_labels(run_scenario("figure7", job_count=80, seed=2))


def test_figure7_all_jobs_complete(figure7_results):
    for label, result in figure7_results.items():
        assert result.all_done, f"{label} left jobs unfinished"
        assert result.metrics.job_count == 80


def test_figure7_malleability_beats_the_mixed_workload(figure7_results):
    """Wm (all malleable) achieves shorter execution times and larger job
    sizes than Wmr (half rigid) for both policies — the paper's headline."""
    for policy in ("FPSMA", "EGS"):
        wm = figure7_results[f"{policy}/Wm"].metrics
        wmr = figure7_results[f"{policy}/Wmr"].metrics
        assert wm.summary()["mean_execution_time"] < wmr.summary()["mean_execution_time"]
        assert wm.summary()["mean_average_allocation"] > wmr.summary()["mean_average_allocation"]


def test_figure7_egs_sends_more_grow_messages(figure7_results):
    """EGS makes all running jobs grow on every trigger, FPSMA only the oldest,
    so EGS sends clearly more grow messages (Figure 7(f))."""
    assert (
        figure7_results["EGS/Wm"].metrics.total_grow_messages
        > figure7_results["FPSMA/Wm"].metrics.total_grow_messages
    )
    # And the all-malleable workload produces more messages than the mixed one.
    for policy in ("FPSMA", "EGS"):
        assert (
            figure7_results[f"{policy}/Wm"].metrics.total_grow_messages
            > figure7_results[f"{policy}/Wmr"].metrics.total_grow_messages
        )


def test_figure7_pra_never_shrinks(figure7_results):
    for result in figure7_results.values():
        assert result.metrics.total_shrink_messages == 0


def test_figure7_jobs_grow_beyond_their_initial_size(figure7_results):
    """With PRA a substantial share of malleable jobs grows beyond the initial
    2 processors (Figures 7(a)/(b)); rigid jobs never do."""
    wm = figure7_results["EGS/Wm"].metrics
    grown = [j for j in wm.jobs if j.maximum_allocation > 2]
    assert len(grown) > 0.4 * len(wm.jobs)
    wmr = figure7_results["EGS/Wmr"].metrics
    assert all(j.maximum_allocation == 2 for j in wmr.select(kind="rigid"))


def test_figure7_report_contains_all_six_panels(figure7_results):
    report = scenario_report("figure7", figure7_results)
    for panel in ("7(a)", "7(b)", "7(c)", "7(d)", "7(e)", "7(f)"):
        assert panel in report
    assert "FPSMA/Wm" in report and "EGS/Wmr" in report


# ---------------------------------------------------------------------------
# Figure 8 — PWA approach (reduced size)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure8_results():
    return _bare_labels(run_scenario("figure8", job_count=80, seed=2))


def test_figure8_all_jobs_complete(figure8_results):
    for label, result in figure8_results.items():
        assert result.all_done, f"{label} left jobs unfinished"


def test_figure8_jobs_are_stuck_near_their_minimum_size(figure8_results):
    """Under the high-load W' workloads with PWA, most jobs stay near their
    minimal size (Figures 8(a)/(b))."""
    for label, result in figure8_results.items():
        metrics = result.metrics
        small = [j for j in metrics.malleable_jobs if j.average_allocation <= 6]
        assert len(small) >= 0.5 * len(metrics.malleable_jobs), label


def test_figure8_execution_times_exceed_the_pra_ones(figure7_results, figure8_results):
    """The paper observes GADGET-2 execution times roughly 30% higher under
    PWA/W' than under PRA/W (Figure 8(c) versus 7(c))."""
    for policy in ("FPSMA", "EGS"):
        pra = figure7_results[f"{policy}/Wm"].metrics.select(profile="gadget2")
        pwa = figure8_results[f"{policy}/W'm"].metrics.select(profile="gadget2")
        pra_mean = np.mean([j.execution_time for j in pra])
        pwa_mean = np.mean([j.execution_time for j in pwa])
        # At the reduced job count used in tests the gap is smaller than the
        # paper's ~30%, but the direction must hold.
        assert pwa_mean > pra_mean * 1.02


def test_figure8_egs_remains_the_more_active_policy(figure8_results):
    assert (
        figure8_results["EGS/W'm"].metrics.total_grow_messages
        > figure8_results["FPSMA/W'm"].metrics.total_grow_messages
    )


def test_figure8_report_contains_all_six_panels(figure8_results):
    report = scenario_report("figure8", figure8_results)
    for panel in ("8(a)", "8(b)", "8(c)", "8(d)", "8(e)", "8(f)"):
        assert panel in report
