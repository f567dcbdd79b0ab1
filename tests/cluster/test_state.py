"""Tests of the struct-of-arrays cluster state (`repro.cluster.state`).

The invariants under test are the module's contract: after every mutation,
``idle == max(0, total - failed - used)`` and ``effective == max(0,
idle - pending)``, the shared dict views reflect the columns, and the
Worst-Fit selection matches the historical sort-based rule.
The last test binds real clusters through a multicluster and checks the
mirror stays exact through allocate/release/fail/repair.
"""

from __future__ import annotations

import pytest

from repro.cluster.multicluster import Multicluster
from repro.cluster.state import ClusterState
from repro.sim.core import Environment


def make_state():
    state = ClusterState()
    state.register("delft", 64)
    state.register("amsterdam", 32)
    return state


def check_invariants(state):
    for index, name in enumerate(state.names):
        idle = max(
            0,
            int(state.total[index])
            - int(state.failed[index])
            - int(state.used_grid[index])
            - int(state.used_local[index]),
        )
        effective = max(0, idle - int(state.pending[index]))
        assert int(state.idle[index]) == idle
        assert int(state.effective[index]) == effective
        assert state.idle_view()[name] == idle
        assert state.effective_view()[name] == effective
        assert state.idle_of(name) == idle
        assert state.effective_of(name) == effective


def test_register_initialises_full_idle():
    state = make_state()
    assert len(state) == 2
    assert state.index_of("delft") == 0
    assert state.idle_view() == {"delft": 64, "amsterdam": 32}
    assert state.effective_view() == {"delft": 64, "amsterdam": 32}
    check_invariants(state)


def test_register_rejects_duplicates():
    state = make_state()
    with pytest.raises(ValueError, match="already registered"):
        state.register("delft", 16)


def test_usage_failed_and_pending_updates_hold_the_invariants():
    state = make_state()
    state.update_usage(0, 30, 10)
    check_invariants(state)
    assert state.idle_of("delft") == 24
    state.update_failed(0, 20)
    check_invariants(state)
    assert state.idle_of("delft") == 4
    state.update_pending("delft", 3)
    check_invariants(state)
    assert state.effective_of("delft") == 1
    assert state.idle_of("delft") == 4  # pending never touches idle
    state.update_pending("delft", 0)
    check_invariants(state)
    assert state.effective_of("delft") == 4


def test_idle_clamps_at_zero_during_fault_teardown():
    # Between a failure striking busy nodes and the victim allocations being
    # released, failed + used may transiently exceed the total.
    state = make_state()
    state.update_usage(0, 60, 0)
    state.update_failed(0, 10)
    check_invariants(state)
    assert state.idle_of("delft") == 0
    assert state.effective_of("delft") == 0


def test_pending_above_idle_clamps_effective():
    state = make_state()
    state.update_usage(1, 30, 0)
    state.update_pending("amsterdam", 5)
    check_invariants(state)
    assert state.idle_of("amsterdam") == 2
    assert state.effective_of("amsterdam") == 0


def test_total_idle_sums_the_column():
    state = make_state()
    state.update_usage(0, 10, 0)
    assert state.total_idle() == 54 + 32


def test_select_worst_fit_matches_the_sort_rule():
    state = make_state()
    # delft 64 idle, amsterdam 32 idle: worst fit picks delft.
    assert state.select_worst_fit(1) == "delft"
    # Tie on effective idle: lexicographically smallest name wins.
    state.update_usage(0, 32, 0)
    assert state.effective_of("delft") == state.effective_of("amsterdam") == 32
    assert state.select_worst_fit(1) == "amsterdam"
    # Nothing fits: None.
    assert state.select_worst_fit(33) is None


def test_shared_views_are_live():
    state = make_state()
    idle = state.idle_view()
    effective = state.effective_view()
    state.update_usage(0, 16, 0)
    assert idle["delft"] == 48
    assert effective["delft"] == 48


def test_bound_clusters_mirror_through_their_lifecycle():
    env = Environment()
    multicluster = Multicluster(env)
    delft = multicluster.add_cluster("delft", 64)
    amsterdam = multicluster.add_cluster("amsterdam", 32)
    assert amsterdam.total_processors == 32
    state = multicluster.state

    allocation = delft.try_allocate(10, owner="job-1")
    assert state.idle_of("delft") == 54
    local = delft.try_allocate(4, owner="bg", kind="local")
    assert state.idle_of("delft") == 50
    delft.mark_failed(20)
    assert state.idle_of("delft") == 30
    check_invariants(state)
    delft.release(allocation)
    assert state.idle_of("delft") == 40
    delft.mark_repaired(20)
    delft.release(local)
    assert state.idle_of("delft") == 64
    assert state.idle_of("amsterdam") == 32
    check_invariants(state)
