"""Unit tests of the KOALA placement policies."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import gadget2_profile
from repro.cluster import Multicluster
from repro.cluster.state import ClusterState
from repro.policies.registry import build_policy
from repro.koala import (
    CloseToFiles,
    ClusterMinimization,
    FlexibleClusterMinimization,
    Job,
    JobComponent,
    JobKind,
    WorstFit,
)


@pytest.fixture
def system(env, streams):
    multicluster = Multicluster(env, streams=streams)
    multicluster.add_cluster("big", 64)
    multicluster.add_cluster("medium", 32)
    multicluster.add_cluster("small", 16)
    return multicluster


def single_component_job(profile, processors):
    return Job(
        profile=profile,
        kind=JobKind.RIGID,
        components=[JobComponent(processors=processors)],
        minimum_processors=processors,
        maximum_processors=processors,
    )


def coallocated_job(profile, sizes, files=()):
    return Job(
        profile=profile,
        kind=JobKind.RIGID,
        components=[JobComponent(processors=s, input_files=tuple(files)) for s in sizes],
        minimum_processors=min(sizes),
        maximum_processors=sum(sizes),
    )


# ---------------------------------------------------------------------------
# Worst Fit
# ---------------------------------------------------------------------------


def test_worst_fit_prefers_cluster_with_most_idle(system, gadget2):
    policy = WorstFit()
    idle = {"big": 30, "medium": 32, "small": 10}
    decision = policy.place(single_component_job(gadget2, 8), idle, system)
    assert decision.success
    assert decision.placements[0] == ("medium", 8)


def test_worst_fit_fails_when_nothing_fits(system, gadget2):
    policy = WorstFit()
    idle = {"big": 5, "medium": 4, "small": 3}
    decision = policy.place(single_component_job(gadget2, 8), idle, system)
    assert not decision.success
    assert "8" in decision.reason


def test_worst_fit_spreads_coallocated_components(system, gadget2):
    policy = WorstFit()
    idle = {"big": 20, "medium": 18, "small": 16}
    decision = policy.place(coallocated_job(gadget2, [16, 16]), idle, system)
    assert decision.success
    clusters = [cluster for cluster, _ in decision.placements.values()]
    # The two components land on the two clusters with the most idle processors.
    assert sorted(clusters) == ["big", "medium"]
    assert decision.processors_on("big") == 16


def test_worst_fit_accounts_for_already_placed_components(system, gadget2):
    policy = WorstFit()
    idle = {"big": 20, "medium": 6, "small": 6}
    decision = policy.place(coallocated_job(gadget2, [12, 10]), idle, system)
    # 12 fits on big, but then only 8 remain there and nothing else fits 10.
    assert not decision.success


#: One cluster of the Worst-Fit property: total, grid and local use, failed
#: nodes and pending claims.  Use, failures and claims may exceed the total,
#: as they transiently do while a failure's victims are torn down.
cluster_columns = st.tuples(
    st.integers(1, 12), st.integers(0, 8), st.integers(0, 8), st.integers(0, 6), st.integers(0, 6)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    clusters=st.dictionaries(st.text("abcd", min_size=1, max_size=3), cluster_columns, max_size=6),
    data=st.data(),
)
def test_worst_fit_fast_path_equals_the_sort_path(clusters, data):
    """The single-component fast path (the live effective view, served by
    ``ClusterState.select_worst_fit``) and the general sort path (any other
    dict, here a copy of that view) make the same decision, the empty
    system included."""
    state = ClusterState()
    for name, (total, grid, local, failed, pending) in clusters.items():
        index = state.register(name, total)
        state.update_usage(index, grid, local)
        state.update_failed(index, failed)
        state.update_pending(name, pending)
    largest = max((total for total, *_ in clusters.values()), default=0)
    processors = data.draw(st.integers(1, largest + 1), label="processors")
    job = single_component_job(gadget2_profile(), processors)
    system = SimpleNamespace(state=state)

    fast = WorstFit().place(job, state.effective_view(), system)
    general = WorstFit().place(job, dict(state.effective_view()), system)

    assert (fast.success, fast.placements, fast.reason) == (
        general.success, general.placements, general.reason
    )


# ---------------------------------------------------------------------------
# Close to Files
# ---------------------------------------------------------------------------


def test_close_to_files_prefers_replica_sites(system, gadget2):
    system.register_replica("input.dat", "small")
    policy = CloseToFiles(file_size_mb=1000.0)
    idle = {"big": 40, "medium": 30, "small": 10}
    job = coallocated_job(gadget2, [8], files=["input.dat"])
    decision = policy.place(job, idle, system)
    assert decision.success
    assert decision.placements[0][0] == "small"


def test_close_to_files_falls_back_to_worst_fit_without_files(system, gadget2):
    policy = CloseToFiles()
    idle = {"big": 40, "medium": 30, "small": 10}
    decision = policy.place(single_component_job(gadget2, 8), idle, system)
    assert decision.success
    assert decision.placements[0][0] == "big"


def test_close_to_files_fails_when_nothing_fits(system, gadget2):
    policy = CloseToFiles()
    decision = policy.place(
        single_component_job(gadget2, 50), {"big": 10, "medium": 10, "small": 10}, system
    )
    assert not decision.success


# ---------------------------------------------------------------------------
# Cluster minimization (CM / FCM)
# ---------------------------------------------------------------------------


def test_cluster_minimization_packs_components_together(system, gadget2):
    policy = ClusterMinimization()
    idle = {"big": 40, "medium": 30, "small": 30}
    decision = policy.place(coallocated_job(gadget2, [10, 10, 10]), idle, system)
    assert decision.success
    assert decision.clusters_used == ["big"]


def test_cluster_minimization_opens_second_cluster_only_when_needed(system, gadget2):
    policy = ClusterMinimization()
    idle = {"big": 25, "medium": 30, "small": 10}
    decision = policy.place(coallocated_job(gadget2, [20, 15]), idle, system)
    assert decision.success
    assert len(decision.clusters_used) == 2


def test_flexible_cluster_minimization_resplits_the_job(system, gadget2):
    policy = FlexibleClusterMinimization()
    idle = {"big": 30, "medium": 20, "small": 10}
    # A 45-processor request does not fit in any single cluster but can be
    # split over the two largest.
    decision = policy.place(single_component_job(gadget2, 45), idle, system)
    assert decision.success
    assert decision.processors_on("big") == 30
    assert decision.processors_on("medium") == 15


def test_flexible_cluster_minimization_fails_when_system_is_too_small(system, gadget2):
    policy = FlexibleClusterMinimization()
    decision = policy.place(
        single_component_job(gadget2, 100), {"big": 30, "medium": 20, "small": 10}, system
    )
    assert not decision.success
    assert "60 of 100" in decision.reason


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def test_build_placement_policy_by_name():
    assert isinstance(build_policy("placement", "WF"), WorstFit)
    assert isinstance(build_policy("placement", "cf"), CloseToFiles)
    assert isinstance(build_policy("placement", "CM"), ClusterMinimization)
    assert isinstance(build_policy("placement", "FCM"), FlexibleClusterMinimization)
    with pytest.raises(ValueError):
        build_policy("placement", "nope")


def test_policies_never_mutate_the_idle_view(system, gadget2):
    idle = {"big": 20, "medium": 10, "small": 5}
    snapshot = dict(idle)
    for name in ("WF", "CF", "CM", "FCM"):
        build_policy("placement", name).place(single_component_job(gadget2, 8), idle, system)
        assert idle == snapshot
