"""Unit tests of the simulation environment and its run loop."""

from __future__ import annotations

import importlib.util

import pytest

import repro.sim
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
    seen = []

    def second(_event):
        seen.append(env.now)
        env.timeout(5).callbacks.append(lambda _event: seen.append(env.now))

    env.timeout(10).callbacks.append(second)
    env.run()
    assert seen == [10, 15]
    assert env.now == 15


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_exactly_there():
    env = Environment()
    ticks = []

    def tick(_event=None):
        if _event is not None:
            ticks.append(env.now)
        env.timeout(1).callbacks.append(tick)

    tick()
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


def test_nan_times_are_rejected_and_push_nothing():
    # ``nan < 0`` is False, and a NaN heap key never lets a run end.
    nan = float("nan")
    env = Environment()
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
    env.timeout(1).callbacks.append(lambda _event: fired.append(env.now))
    assert env.run(until=5.0) is None
    assert env.now == 5.0
    assert fired == []  # no event was processed
    env.run()
    assert fired == [6.0]  # the pending timeout still fires on a later run


def test_run_until_event_returns_its_value():
    env = Environment()
    done = env.event()
    env.timeout(3).callbacks.append(lambda _event: done.succeed("payload"))
    env.timeout(8)
    assert env.run(until=done) == "payload"
    assert env.now == 3
    assert env.peek() == 8


def test_run_until_already_processed_event():
    env = Environment()
    timeout = env.timeout(1, value=7)
    env.run()
    assert env.run(until=timeout) == 7


def test_events_at_same_time_processed_in_schedule_order():
    env = Environment()
    order = []
    for name in ("first", "second", "third"):
        env.timeout(5).callbacks.append(lambda _event, name=name: order.append(name))
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


def test_an_exception_in_a_callback_propagates_out_of_run():
    env = Environment()

    def broken(_event):
        raise RuntimeError("boom")

    env.timeout(1).callbacks.append(broken)
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert env.now == 1


def test_unhandled_event_failure_propagates_out_of_run():
    env = Environment()
    env.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_failure_defused_by_a_callback_does_not_propagate():
    env = Environment()
    caught = []

    def guard(event):
        event.defused = True
        caught.append(type(event.value).__name__)

    env.event().fail(RuntimeError("boom")).callbacks.append(guard)
    env.run()
    assert caught == ["RuntimeError"]


def test_the_kernel_has_no_process_api():
    """Every simulated activity is a callback chain: the kernel offers no
    generator processes, interrupts or active-process bookkeeping."""
    assert importlib.util.find_spec("repro.sim.process") is None
    for name in ("process", "active_process"):
        assert not hasattr(Environment, name)
    for name in ("Process", "ProcessGenerator", "Interrupt"):
        assert not hasattr(repro.sim, name)
    assert not hasattr(repro.sim.events, "Initialize")
