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


def at(env: Environment, time: float, action) -> None:
    """Run *action* in a NORMAL event at *time*."""
    env.timeout(time - env.now).callbacks.append(lambda _event: action())


def resize_in_turn(env: Environment, app: RunningApplication, steps, acks=None) -> None:
    """For each ``(delay, size)``: wait *delay*, then ask for *size* and wait
    for the acknowledgement before the next step (stop once finished).  The
    adopted sizes are appended to *acks*."""

    def step(index: int) -> None:
        if index == len(steps):
            return
        delay, size = steps[index]

        def resize() -> None:
            if app.is_finished:
                return

            def acknowledged(ack) -> None:
                if acks is not None:
                    acks.append(ack.value)
                step(index + 1)

            app.set_allocation(size).callbacks.append(acknowledged)

        at(env, env.now + delay, resize)

    step(0)


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
    resize_in_turn(env, app, [(25.0, 10)])  # half of the work done at T(2)=50
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
    resize_in_turn(env, app, [(5.0, 2)])  # half done at T(10)=10
    env.run(app.completed)
    assert app.record.execution_time == pytest.approx(30.0)
    assert app.record.shrink_count == 1


def test_reconfiguration_cost_pauses_progress():
    env = Environment()
    profile = make_profile(reconfig_cost=7.0)
    app = RunningApplication(env, profile, initial_allocation=2, adaptation_point_interval=0.0)
    app.start()
    resize_in_turn(env, app, [(25.0, 10)])
    env.run(app.completed)
    # As before but with a 7-second pause during which no progress is made.
    assert app.record.execution_time == pytest.approx(37.0)
    assert app.record.reconfigurations[0].cost == pytest.approx(7.0)


def test_adaptation_point_wait_delays_the_switch():
    env = Environment()
    app = RunningApplication(env, make_profile(), initial_allocation=2, adaptation_point_interval=10.0)
    app.start()
    acknowledged = []
    at(env, 10.0, lambda: app.set_allocation(4).callbacks.append(
        lambda _ack: acknowledged.append(env.now)
    ))
    env.run(app.completed)
    # Without an RNG the wait is half the adaptation-point interval.
    assert acknowledged == [pytest.approx(15.0)]


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
    acks = []

    def resize_twice():
        app.set_allocation(4).callbacks.append(lambda ack: acks.append(ack.value))
        app.set_allocation(8).callbacks.append(lambda ack: acks.append(ack.value))

    at(env, 10.0, resize_twice)
    env.run(app.completed)
    assert acks == [4, 8]
    assert app.allocation == 8
    assert [r.new_allocation for r in app.record.reconfigurations] == [4, 8]


def test_two_requests_in_one_instant_wait_for_their_adaptation_points_in_turn():
    """Regression: a second request made in the instant of the first, while
    the application computes, used to interrupt it a second time; the
    interrupt landed while the first request waited for its adaptation point
    and crashed the run with ``Interrupt('reallocation')``.  Now it joins the
    queue: without an RNG each request waits half the 2-second interval, then
    pays GADGET-2's reconfiguration cost."""
    env = Environment()
    app = RunningApplication(env, gadget2_profile(), 2, adaptation_point_interval=2.0)
    app.start()
    acks = []

    def resize_twice():
        for size in (4, 6):
            app.set_allocation(size).callbacks.append(
                lambda ack: acks.append((env.now, ack.value))
            )

    at(env, 10.0, resize_twice)
    env.run(app.completed)
    assert acks == [(16.0, 4), (21.0, 6)]
    assert [
        (r.time, r.old_allocation, r.new_allocation) for r in app.record.reconfigurations
    ] == [(16.0, 2, 4), (21.0, 4, 6)]


def test_an_abort_with_an_interrupt_in_flight_ends_the_run_cleanly():
    """An abort in the instant a reallocation interrupted the computation
    only closes the record: the one interrupt in flight ends the chain."""
    env = Environment()
    app = RunningApplication(env, make_profile(reconfig_cost=3.0), 2, adaptation_point_interval=0.0)
    app.start()
    acks = []

    def resize_then_abort():
        app.set_allocation(4).callbacks.append(lambda ack: acks.append(ack.value))
        app.abort()

    at(env, 10.0, resize_then_abort)
    env.run()
    assert app.aborted and app.record.finish_time == 10.0
    assert acks == [2]
    assert app.record.reconfigurations == []


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
    resize_in_turn(env, app, switches)
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
    resize_in_turn(env, app, [(5.0, size) for size in growths], acks=applied)
    env.run(app.completed)
    series = app.record.allocation_series
    assert series.values[0] == initial
    assert app.record.maximum_allocation == max(applied)
