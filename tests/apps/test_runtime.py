"""Unit and property tests of the simulated application runtime."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    ApplicationProfile,
    ConstantReconfigurationCost,
    NoReconfigurationCost,
    PowerLawSpeedup,
    RunningApplication,
    ft_profile,
    gadget2_profile,
)
from repro.sim import Environment


def make_profile(*, reconfig_cost: float = 0.0) -> ApplicationProfile:
    """A simple perfectly scaling profile: T(n) = 100 / n."""
    return ApplicationProfile(
        name="linear",
        speedup=PowerLawSpeedup(sequential_time=100.0, alpha=1.0),
        reconfiguration=(
            ConstantReconfigurationCost(reconfig_cost)
            if reconfig_cost
            else NoReconfigurationCost()
        ),
    )


def run_to_completion(env: Environment, app: RunningApplication) -> None:
    app.start()
    env.run(app.completed)


# ---------------------------------------------------------------------------
# Fixed-allocation execution
# ---------------------------------------------------------------------------


def test_execution_time_matches_profile_without_reallocation():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=4)
    run_to_completion(env, app)
    assert app.record.execution_time == pytest.approx(25.0)
    assert app.record.average_allocation == pytest.approx(4.0)
    assert app.record.maximum_allocation == 4
    assert app.is_finished and not app.is_running


def test_total_work_scales_execution_time():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=2, total_work=0.5)
    run_to_completion(env, app)
    assert app.record.execution_time == pytest.approx(25.0)  # half of T(2)=50


def test_validation_of_constructor_arguments():
    env = Environment()
    profile = make_profile()
    with pytest.raises(ValueError):
        RunningApplication(env, profile, initial_allocation=0)
    with pytest.raises(ValueError):
        RunningApplication(env, profile, initial_allocation=2, adaptation_point_interval=-1)
    with pytest.raises(ValueError):
        RunningApplication(env, profile, initial_allocation=2, total_work=0)


def test_cannot_start_twice_or_reallocate_before_start():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=2)
    with pytest.raises(RuntimeError):
        app.set_allocation(4)
    app.start()
    with pytest.raises(RuntimeError):
        app.start()


# ---------------------------------------------------------------------------
# Grow / shrink behaviour
# ---------------------------------------------------------------------------


def test_growing_mid_run_shortens_execution():
    env = Environment()
    profile = make_profile()
    app = RunningApplication(env, profile, initial_allocation=2, adaptation_point_interval=0.0)
    app.start()

    def grower(env, app):
        yield env.timeout(25.0)  # half of the work done at T(2)=50
        yield app.set_allocation(10)

    env.process(grower(env, app))
    env.run(app.completed)
    # Remaining half of the work at 10 processors takes 5 seconds.
    assert app.record.execution_time == pytest.approx(30.0)
    assert app.record.maximum_allocation == 10
    assert app.record.grow_count == 1
    assert app.record.shrink_count == 0


def test_shrinking_mid_run_lengthens_execution():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=10, adaptation_point_interval=0.0)
    app.start()

    def shrinker(env, app):
        yield env.timeout(5.0)  # half done at T(10)=10
        yield app.set_allocation(2)

    env.process(shrinker(env, app))
    env.run(app.completed)
    assert app.record.execution_time == pytest.approx(30.0)
    assert app.record.shrink_count == 1


def test_reconfiguration_cost_pauses_progress():
    env = Environment()
    profile = make_profile(reconfig_cost=7.0)
    app = RunningApplication(env, profile, initial_allocation=2, adaptation_point_interval=0.0)
    app.start()

    def grower(env, app):
        yield env.timeout(25.0)
        yield app.set_allocation(10)

    env.process(grower(env, app))
    env.run(app.completed)
    # As before but with a 7-second pause during which no progress is made.
    assert app.record.execution_time == pytest.approx(37.0)
    assert app.record.reconfigurations[0].cost == pytest.approx(7.0)


def test_adaptation_point_wait_delays_the_switch():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=2, adaptation_point_interval=10.0)
    app.start()

    def grower(env, app):
        yield env.timeout(10.0)
        ack = app.set_allocation(4)
        yield ack
        return env.now

    grower_proc = env.process(grower(env, app))
    env.run(app.completed)
    # Without an RNG the wait is half the adaptation-point interval.
    assert grower_proc.value == pytest.approx(15.0)


def test_same_size_reallocation_acknowledged_immediately():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=4)
    app.start()
    ack = app.set_allocation(4)
    assert ack.triggered
    env.run(app.completed)
    assert app.record.reconfigurations == []


def test_reallocation_after_completion_is_a_no_op():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=4)
    run_to_completion(env, app)
    ack = app.set_allocation(8)
    assert ack.triggered
    assert ack.value == 4
    assert app.allocation == 4


def test_queued_reallocations_are_served_in_order():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=2, adaptation_point_interval=0.0)
    app.start()

    def driver(env, app):
        yield env.timeout(10.0)
        first = app.set_allocation(4)
        second = app.set_allocation(8)
        yield first
        yield second
        return app.allocation

    driver_proc = env.process(driver(env, app))
    env.run(app.completed)
    assert driver_proc.value == 8
    assert [r.new_allocation for r in app.record.reconfigurations] == [4, 8]


def test_ft_profile_runs_and_records_submit_time():
    env = Environment()
    app = RunningApplication(env, ft_profile(), initial_allocation=2, job_id="ft-test")
    app.record.submit_time = 0.0
    run_to_completion(env, app)
    assert app.record.execution_time == pytest.approx(120.0)
    assert app.record.response_time == pytest.approx(120.0)
    assert app.record.wait_time == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------


@given(
    initial=st.integers(min_value=1, max_value=46),
    switches=st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=120.0),
            st.integers(min_value=1, max_value=46),
        ),
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_execution_time_bounded_by_best_and_worst_allocation(initial, switches):
    """However the allocation changes, the execution time stays between the
    all-time-best and all-time-worst fixed allocations (zero-cost reconfig)."""
    env = Environment()
    profile = gadget2_profile(reconfiguration=None).with_reconfiguration(NoReconfigurationCost())
    app = RunningApplication(env, profile, initial_allocation=initial, adaptation_point_interval=0.0)
    app.start()

    def driver(env, app, switches):
        for delay, size in switches:
            yield env.timeout(delay)
            if app.is_finished:
                return
            yield app.set_allocation(size)

    env.process(driver(env, app, switches))
    env.run(app.completed)

    sizes = [initial] + [size for _, size in switches]
    best = min(profile.execution_time(s) for s in sizes)
    worst = max(profile.execution_time(s) for s in sizes)
    assert best - 1e-6 <= app.record.execution_time <= worst + 1e-6


@given(
    initial=st.integers(min_value=1, max_value=32),
    growths=st.lists(st.integers(min_value=1, max_value=46), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_allocation_history_is_consistent(initial, growths):
    """The recorded allocation series always starts at the initial allocation
    and its maximum equals the largest allocation ever set."""
    env = Environment()
    profile = gadget2_profile().with_reconfiguration(NoReconfigurationCost())
    app = RunningApplication(env, profile, initial_allocation=initial, adaptation_point_interval=0.0)
    app.start()

    applied = [initial]

    def driver(env, app, growths):
        for size in growths:
            yield env.timeout(5.0)
            if app.is_finished:
                return
            got = yield app.set_allocation(size)
            applied.append(got)

    env.process(driver(env, app, growths))
    env.run(app.completed)
    series = app.record.allocation_series
    assert series.values[0] == initial
    assert app.record.maximum_allocation == max(applied)
