"""Unit tests of the simulation environment and its run loop."""

from __future__ import annotations

import pytest

from repro.sim import Environment, Event, Timeout


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=42.5).now == 42.5


def test_run_without_events_returns_immediately():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10)
        yield env.timeout(5)
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 15
    assert env.now == 15


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_exactly_there():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=10)
    assert env.now == 10
    assert ticks[-1] <= 10


def test_run_until_time_fires_only_earlier_events():
    """``run(until=t)``: events before ``t`` fire, one at ``t`` stays pending.

    The clock ends at ``t`` and no stop event is scheduled, so the event-id
    counter does not move and only the fired events are counted.
    """
    env = Environment()
    fired = []
    for at in (1.0, 4.0, 10.0, 12.0):
        env.timeout(at).callbacks.append(lambda event, at=at: fired.append(at))
    ids_before = env._eid
    env.run(until=10.0)
    assert fired == [1.0, 4.0]
    assert env.now == 10.0
    assert env._eid == ids_before
    assert env.processed_events == 2
    assert env.peek() == 10.0
    env.run(until=11.0)
    assert fired == [1.0, 4.0, 10.0]
    assert env.now == 11.0


def test_run_until_time_on_an_empty_queue_moves_the_clock():
    env = Environment()
    env.run(until=50.0)
    assert env.now == 50.0
    assert env.processed_events == 0


def test_events_drain_in_time_priority_insertion_order():
    env = Environment()
    fired = []
    for name, at, priority in (
        ("late", 5.0, 1),
        ("early", 1.0, 1),
        ("urgent-late", 5.0, 0),
        ("earliest", 0.5, 1),
        ("late-again", 5.0, 1),
    ):
        event = Event(env)
        event._ok, event._value = True, None
        event.callbacks.append(lambda event, name=name: fired.append(name))
        env.schedule_at(event, at, priority=priority)
    assert [entry[0] for entry in env.pending_entries()] == [0.5, 1.0, 5.0, 5.0, 5.0]
    env.run()
    assert fired == ["earliest", "early", "urgent-late", "late", "late-again"]
    assert env.pending_entries() == []


@pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "pooled"])
def test_nan_times_are_rejected_and_push_nothing(pooled):
    # ``nan < 0`` is False, and a NaN heap key never lets a run end.
    nan = float("nan")
    env = Environment()
    if pooled:

        def sleeper(env):
            yield env.timeout(1.0)

        env.process(sleeper(env))
        env.run()
    assert bool(env._timeout_pool) is pooled
    before = env.kernel_state()
    with pytest.raises(ValueError):
        env.timeout(nan)
    with pytest.raises(ValueError):
        Timeout(env, nan)
    with pytest.raises(ValueError):
        env.timeout_at(nan)
    with pytest.raises(ValueError):
        env.schedule_at(env.event(), nan)
    assert env.kernel_state() == before


def test_resolve_queue_name_names_the_heap():
    from repro.sim.calqueue import resolve_queue_name

    assert resolve_queue_name() == "heap"


@pytest.mark.parametrize("until", [4.0, float("nan")])
def test_run_until_past_time_rejected(until):
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=until)
    assert env.now == 5.0


def test_run_until_current_time_is_a_noop():
    """``run(until=now)`` is a tolerated no-op: nothing runs, nothing raises.

    Regression test: this used to raise ``ValueError``, which made drivers
    that compute ``until=min(time_limit, ...)`` blow up exactly when the
    clock had already reached the limit.
    """
    env = Environment(initial_time=5.0)
    fired = []

    def proc(env):
        yield env.timeout(1)
        fired.append(env.now)

    env.process(proc(env))
    assert env.run(until=5.0) is None
    assert env.now == 5.0
    assert fired == []  # no event was processed
    env.run()
    assert fired == [6.0]  # the pending timeout still fires on a later run


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "payload"

    process = env.process(proc(env))
    assert env.run(until=process) == "payload"
    assert env.now == 3


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 7

    process = env.process(proc(env))
    env.run()
    assert env.run(until=process) == 7


def test_events_at_same_time_processed_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(5)
        order.append(name)

    env.process(proc(env, "first"))
    env.process(proc(env, "second"))
    env.process(proc(env, "third"))
    env.run()
    assert order == ["first", "second", "third"]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.timeout(3)
    assert env.peek() == 3


def test_peek_on_empty_queue_is_infinite():
    assert Environment().peek() == float("inf")


def test_unhandled_process_failure_propagates_out_of_run():
    env = Environment()

    def broken(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(broken(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_failure_handled_by_waiter_does_not_propagate():
    env = Environment()

    def broken(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    def guard(env, victim):
        try:
            yield victim
        except RuntimeError:
            return "caught"

    victim = env.process(broken(env))
    guard_proc = env.process(guard(env, victim))
    env.run()
    assert guard_proc.value == "caught"


def test_nested_process_waiting():
    env = Environment()

    def inner(env):
        yield env.timeout(4)
        return 11

    def outer(env):
        value = yield env.process(inner(env))
        return value * 2

    process = env.process(outer(env))
    env.run()
    assert process.value == 22
    assert env.now == 4


def test_active_process_visible_during_execution():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1)

    process = env.process(proc(env))
    env.run()
    assert seen == [process]
    assert env.active_process is None
