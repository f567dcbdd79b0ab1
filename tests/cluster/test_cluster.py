"""Unit tests of the cluster pool: allocation accounting and usage series."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import AllocationError, Cluster
from repro.sim import Environment


def at(env, time, action):
    """Run *action* in a NORMAL event at *time*."""
    env.timeout(time - env.now).callbacks.append(lambda _event: action())


def test_cluster_requires_at_least_one_processor(env):
    with pytest.raises(ValueError):
        Cluster(env, "empty", 0)


def test_allocate_and_release_update_counters(env):
    cluster = Cluster(env, "c", 10)
    assert cluster.idle_processors == 10
    allocation = cluster.allocate(4, owner="job-1")
    assert cluster.used_processors == 4
    assert cluster.grid_processors == 4
    assert cluster.local_processors == 0
    assert cluster.idle_processors == 6
    assert cluster.utilization == pytest.approx(0.4)
    allocation.release()
    assert cluster.idle_processors == 10
    assert not allocation.active
    assert allocation.duration == 0.0


def test_local_and_grid_usage_tracked_separately(env):
    cluster = Cluster(env, "c", 20)
    cluster.allocate(5, owner="grid-job", kind="grid")
    cluster.allocate(3, owner="local-job", kind="local")
    assert cluster.grid_processors == 5
    assert cluster.local_processors == 3
    assert cluster.used_processors == 8


def test_try_allocate_returns_none_when_insufficient(env):
    cluster = Cluster(env, "c", 4)
    assert cluster.try_allocate(5, owner="too-big") is None
    assert cluster.try_allocate(4, owner="fits") is not None
    assert cluster.try_allocate(1, owner="now-full") is None


def test_allocate_raises_when_insufficient(env):
    cluster = Cluster(env, "c", 4)
    with pytest.raises(AllocationError):
        cluster.allocate(5, owner="too-big")
    with pytest.raises(AllocationError):
        cluster.allocate(0, owner="zero")


def test_release_of_unknown_allocation_rejected(env):
    cluster_a = Cluster(env, "a", 4)
    cluster_b = Cluster(env, "b", 4)
    allocation = cluster_a.allocate(2, owner="job")
    with pytest.raises(AllocationError):
        cluster_b.release(allocation)
    cluster_a.release(allocation)
    with pytest.raises(AllocationError):
        cluster_a.release(allocation)  # double release


def test_usage_series_records_changes_over_time(env):
    cluster = Cluster(env, "c", 10)
    allocation = cluster.allocate(6, owner="j1")
    at(env, 10, allocation.release)
    at(env, 15, lambda: cluster.allocate(2, owner="j2", kind="local"))
    env.run()
    series = cluster.usage_series
    assert series.value_at(0) == 6
    assert series.value_at(9.9) == 6
    assert series.value_at(10) == 0
    assert series.value_at(15) == 2
    assert cluster.local_usage_series.value_at(15) == 2
    assert cluster.grid_usage_series.value_at(15) == 0


def usage_steps(cluster):
    return [
        (series.name, series.times, series.values)
        for series in (cluster.usage_series, cluster.grid_usage_series, cluster.local_usage_series)
    ]


def test_usage_series_keep_the_last_change_of_each_instant(env):
    """A job that allocates and releases within one instant leaves only the
    instant's last counters; changes in different instants each leave one
    step, as float times and values."""
    cluster = Cluster(env, "c", 10)
    flash = cluster.allocate(3, owner="flash")
    local = cluster.allocate(2, owner="bg", kind="local")
    flash.release()
    grid = []

    def swap():
        grid.append(cluster.allocate(4, owner="j1"))
        local.release()

    at(env, 5, swap)
    at(env, 8, lambda: grid[0].release())
    at(env, 10, lambda: cluster.release(cluster.allocate(1, owner="blip")))
    env.run()
    times = [0.0, 5.0, 8.0, 10.0]
    assert usage_steps(cluster) == [
        ("c:usage", times, [2.0, 4.0, 0.0, 0.0]),
        ("c:grid-usage", times, [0.0, 4.0, 0.0, 0.0]),
        ("c:local-usage", times, [2.0, 0.0, 0.0, 0.0]),
    ]
    assert all(type(t) is float for t in cluster.usage_series.times)


def test_when_released_event_fires_on_next_release(env):
    cluster = Cluster(env, "c", 10)
    allocation = cluster.allocate(3, owner="j1")
    seen = []
    cluster.when_released().callbacks.append(lambda event: seen.append((env.now, event.value)))
    at(env, 7, allocation.release)
    env.run()
    assert seen == [(7, 10)]


def test_release_listener_sees_every_release(env):
    cluster = Cluster(env, "c", 16)
    seen = []
    cluster.add_release_listener(lambda allocation: seen.append(
        (allocation.processors, allocation.kind)
    ))
    a = cluster.allocate(4, owner="grid", kind="grid")
    b = cluster.allocate(2, owner="local", kind="local")
    a.release()
    b.release()
    assert seen == [(4, "grid"), (2, "local")]


def test_active_allocations_sorted_by_grant_time(env):
    cluster = Cluster(env, "c", 16)
    cluster.allocate(1, owner="first")
    at(env, 1, lambda: cluster.allocate(1, owner="second"))
    at(env, 2, lambda: cluster.allocate(1, owner="third"))
    env.run()
    assert [a.owner for a in cluster.active_allocations] == ["first", "second", "third"]


@given(
    requests=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_capacity_is_never_exceeded(requests):
    """Whatever the sequence of allocations, usage never exceeds capacity and
    idle + used always equals the total."""
    env = Environment()
    cluster = Cluster(env, "prop", 32)
    live = []
    for index, size in enumerate(requests):
        allocation = cluster.try_allocate(size, owner=f"job-{index}")
        if allocation is not None:
            live.append(allocation)
        assert 0 <= cluster.used_processors <= cluster.total_processors
        assert cluster.idle_processors + cluster.used_processors == cluster.total_processors
        # Periodically release the oldest allocation to keep churn going.
        if index % 3 == 2 and live:
            live.pop(0).release()
            assert cluster.idle_processors + cluster.used_processors == cluster.total_processors
