"""Unit tests of events, timeouts and the two waits of a callback chain."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.sim import Environment
from repro.sim.events import when_all_processed, when_processed


def test_event_lifecycle_flags():
    env = Environment()
    event = env.event()
    assert not event.triggered
    assert not event.processed
    event.succeed("value")
    assert event.triggered
    assert not event.processed
    env.run()
    assert event.processed
    assert event.ok
    assert event.value == "value"


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)
    with pytest.raises(RuntimeError):
        event.fail(RuntimeError("nope"))


def test_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_fail_requires_an_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_timeout_carries_value_and_delay():
    env = Environment()
    seen = []
    env.timeout(5, value="done").callbacks.append(
        lambda event: seen.append((env.now, event.value))
    )
    env.run()
    assert seen == [(5, "done")]


def test_when_processed_waits_on_a_pending_event_and_runs_at_once_on_a_processed_one():
    env = Environment()
    seen = []
    timeout = env.timeout(4, value=11)
    when_processed(timeout, lambda event: seen.append(("waited", env.now, event.value)))
    env.run()
    # The event is processed now: the link runs inside the call.
    when_processed(timeout, lambda event: seen.append(("at once", env.now, event.value)))
    assert seen == [("waited", 4, 11), ("at once", 4, 11)]


def test_when_all_processed_waits_in_list_order_and_passes_processed_events_on():
    env = Environment()
    early = env.timeout(1, value="early")
    env.run()
    late = env.timeout(5, value="late")
    middle = env.timeout(2, value="middle")
    seen = []
    when_all_processed(
        [late, early, middle],
        lambda events: seen.append((env.now, [event.value for event in events])),
    )
    env.run(until=4)
    # ``middle`` fired, but the walk waits on ``late`` first.
    assert middle.processed and not late.processed
    assert seen == []
    env.run()
    assert seen == [(6, ["late", "early", "middle"])]


def test_when_all_processed_runs_at_once_on_an_empty_or_processed_list():
    env = Environment()
    seen = []
    when_all_processed([], seen.append)
    timeout = env.timeout(1)
    env.run()
    when_all_processed([timeout], seen.append)
    assert seen == [[], [timeout]]


def test_when_all_processed_sees_failed_events():
    env = Environment()
    refused = env.event()
    refused.defused = True
    refused.fail(ValueError("refused"))
    granted = env.timeout(2, value="granted")
    seen = []
    when_all_processed(
        [refused, granted], lambda events: seen.append([event.ok for event in events])
    )
    env.run()
    assert seen == [[False, True]]


def test_a_finished_walk_is_freed_by_reference_counting():
    """Runs pause the cyclic collector, so a chain must not keep itself
    alive: once the walk's last event is processed, the walk and what its
    link holds go at once."""

    class Payload:
        pass

    env = Environment()
    payload = Payload()
    held = weakref.ref(payload)
    seen = []
    when_all_processed(
        [env.timeout(1), env.timeout(2)],
        lambda events, payload=payload: seen.append(len(events)),
    )
    del payload
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env.run(until=1.5)
        assert held() is not None  # the walk still waits on its second event
        env.run()
        assert seen == [2]
        assert held() is None
    finally:
        if was_enabled:
            gc.enable()
