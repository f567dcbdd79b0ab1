"""Unit tests of the multicluster container, the network model and the DAS-3 preset."""

from __future__ import annotations

import pytest

from repro.cluster import (
    BackgroundLoadSpec,
    DAS3_CLUSTERS,
    Link,
    Multicluster,
    NetworkModel,
    das3_multicluster,
)
from repro.cluster.das3 import DAS3_TOTAL_NODES
from repro.sim import Environment, RandomStreams


# ---------------------------------------------------------------------------
# Network model
# ---------------------------------------------------------------------------


def test_link_transfer_time():
    link = Link(latency=0.01, bandwidth=100.0)
    assert link.transfer_time(0) == 0.0
    assert link.transfer_time(500) == pytest.approx(0.01 + 5.0)
    with pytest.raises(ValueError):
        link.transfer_time(-1)
    with pytest.raises(ValueError):
        Link(latency=-1, bandwidth=10)
    with pytest.raises(ValueError):
        Link(latency=0, bandwidth=0)


def test_network_model_defaults_and_overrides():
    network = NetworkModel()
    # Intra-site transfers use the fast local link.
    assert network.transfer_time("a", "a", 100) < network.transfer_time("a", "b", 100)
    fast = Link(latency=1e-3, bandwidth=1000.0)
    network.set_link("a", "b", fast)
    assert network.link("a", "b") is fast
    assert network.link("b", "a") is fast  # symmetric


def test_network_best_source_picks_minimum():
    network = NetworkModel()
    network.set_link("src-fast", "dst", Link(latency=0.0, bandwidth=1000.0))
    network.set_link("src-slow", "dst", Link(latency=0.0, bandwidth=10.0))
    best = network.best_source("dst", ["src-slow", "src-fast"], 100)
    assert best is not None
    assert best[0] == "src-fast"
    assert network.best_source("dst", [], 100) is None


# ---------------------------------------------------------------------------
# Multicluster
# ---------------------------------------------------------------------------


def test_add_cluster_and_lookup(env, streams):
    system = Multicluster(env, streams=streams)
    system.add_cluster("a", 10)
    system.add_cluster("b", 20, background=BackgroundLoadSpec(mean_interarrival=100.0))
    assert len(system) == 2
    assert system.total_processors == 30
    assert "a" in system and "c" not in system
    assert system.cluster("a").total_processors == 10
    assert system.local_rm("a").cluster is system.cluster("a")
    assert system.gram("b").cluster is system.cluster("b")
    assert system.background("a") is None
    assert system.background("b") is not None
    with pytest.raises(ValueError):
        system.add_cluster("a", 5)
    with pytest.raises(KeyError):
        system.cluster("missing")


def test_replica_catalogue(env, streams):
    system = Multicluster(env, streams=streams)
    system.add_cluster("a", 10)
    system.register_replica("input.dat", "a")
    assert system.replica_sites("input.dat") == {"a"}
    assert system.replica_sites("unknown.dat") == set()
    with pytest.raises(KeyError):
        system.register_replica("x", "missing-cluster")


def test_aggregate_idle_and_utilization_series(env, streams):
    system = Multicluster(env, streams=streams)
    a = system.add_cluster("a", 10)
    b = system.add_cluster("b", 10)
    a.allocate(4, owner="j1")
    env.timeout(10).callbacks.append(lambda _event: b.allocate(6, owner="j2", kind="local"))
    env.timeout(20)
    env.run()
    assert system.used_processors == 10
    assert system.idle_processors == 10
    times, values = system.utilization_series("all")
    assert values[-1] == 10
    _, grid = system.utilization_series("grid")
    assert grid[-1] == 4
    _, local = system.utilization_series("local")
    assert local[-1] == 6
    with pytest.raises(ValueError):
        system.utilization_series("bogus")


def test_utilization_series_sum_each_instants_last_usage(env, streams):
    system = Multicluster(env, streams=streams)
    a = system.add_cluster("a", 10)
    b = system.add_cluster("b", 10)
    a.release(a.allocate(5, owner="flash"))  # allocated and released in one instant
    held = a.allocate(3, owner="j1")
    local = []
    env.timeout(4).callbacks.append(
        lambda _event: local.append(b.allocate(6, owner="bg", kind="local"))
    )

    def swap(_event):
        held.release()
        local[0].release()
        b.allocate(2, owner="j2")

    env.timeout(6).callbacks.append(swap)
    env.run()
    expected = {
        "all": [3.0, 9.0, 2.0],
        "grid": [3.0, 3.0, 2.0],
        "local": [0.0, 6.0, 0.0],
    }
    for kind, values in expected.items():
        times, summed = system.utilization_series(kind)
        assert times.tolist() == [0.0, 4.0, 6.0]
        assert summed.tolist() == values


# ---------------------------------------------------------------------------
# DAS-3 preset (Table I)
# ---------------------------------------------------------------------------


def test_das3_matches_table_one(das3):
    # Five clusters, 272 nodes in total.
    assert len(das3) == 5
    assert das3.total_processors == DAS3_TOTAL_NODES == 272
    sizes = {spec.name: spec.nodes for spec in DAS3_CLUSTERS}
    assert sizes == {"vu": 85, "uva": 41, "delft": 68, "multimedian": 46, "leiden": 32}
    for spec in DAS3_CLUSTERS:
        assert das3.cluster(spec.name).total_processors == spec.nodes
        assert das3.cluster(spec.name).location == spec.location


def test_das3_with_background_load():
    env = Environment()
    system = das3_multicluster(
        env,
        streams=RandomStreams(2),
        background={"delft": BackgroundLoadSpec(mean_interarrival=120.0, mean_duration=300.0)},
    )
    env.run(until=4000)
    assert system.background("delft") is not None
    assert system.background("vu") is None
    assert system.background("delft").submitted_count > 0


def test_background_load_local_jobs_and_gated_submissions_run_together():
    """Background load, local jobs and GRAM submissions behind a gatekeeper
    share one environment."""
    env = Environment()
    system = das3_multicluster(
        env,
        streams=RandomStreams(2),
        background={"delft": BackgroundLoadSpec(mean_interarrival=60.0, mean_duration=300.0)},
        gram_concurrency=1,
    )
    for index in range(3):
        system.gram("vu").submit(f"grid-{index}")
    env.run(until=4000)
    assert system.background("delft").submitted_count > 0
    assert system.local_rm("delft").finished_jobs
    assert system.cluster("vu").grid_processors == 3
