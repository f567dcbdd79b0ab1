"""The kernel's event-queue contract.

Every simulated outcome rests on one rule: the environment fires its
pending events in the total order ``(time, priority, insertion_id)`` —
including events scheduled from inside callbacks while the queue drains,
the way callback chains schedule their follow-up events.  The hypothesis
properties check that rule on randomized reactive schedules with
deliberate time and priority ties against a reference model (a plain list
searched with ``min``); the unit tests pin the edge cases: equal and
distant times, the pending set growing and shrinking, absolute-time
scheduling and times in the past.
"""

from __future__ import annotations

from math import inf, nextafter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Event
from repro.sim.events import NORMAL, URGENT

#: Deterministic example generation, so a failure reproduces on every run.
DETERMINISTIC = settings(deadline=None, derandomize=True, max_examples=80)


def _ready(env, on_fire):
    """An already-succeeded, unscheduled event whose callback is *on_fire*."""
    event = Event(env)
    event._ok, event._value = True, None
    event.callbacks.append(on_fire)
    return event


def _fire_next_instant(env):
    """Fire every event at the head's time and stop the clock just after."""
    env.run(until=nextafter(env.peek(), inf))


# -- unit mechanics ------------------------------------------------------------


def test_peek_tracks_the_head_while_draining():
    env = Environment()
    for at in (3.0, 1.5, 7.0):
        env.schedule_at(_ready(env, lambda event: None), at)
    heads = []
    while env.peek() < inf:
        heads.append(env.peek())
        _fire_next_instant(env)
    assert heads == [1.5, 3.0, 7.0]
    assert env.processed_events == 3


def test_distant_event_times_fire_in_order():
    env = Environment()
    fired = []
    for at in (2e9, 1.0, 1e9):
        env.schedule_at(_ready(env, lambda event, at=at: fired.append(at)), at)
    env.run()
    assert fired == [1.0, 1e9, 2e9]
    assert env.now == 2e9


def test_many_equal_times_fire_in_insertion_order():
    env = Environment()
    fired = []
    for index in range(200):
        env.schedule_at(_ready(env, lambda event, index=index: fired.append(index)), 7.0)
    env.run()
    assert fired == list(range(200))


def test_same_time_children_obey_priority_then_insertion_order():
    """A callback's zero-delay children race the entries already pending.

    An urgent child overtakes the normal entries still waiting at the same
    instant; a normal child queues behind them.
    """
    env = Environment()
    fired = []

    def parent(event):
        fired.append("parent")
        env.schedule(_ready(env, lambda e: fired.append("normal-child")), NORMAL)
        env.schedule(_ready(env, lambda e: fired.append("urgent-child")), URGENT)

    env.schedule_at(_ready(env, parent), 5.0, priority=URGENT)
    env.schedule_at(_ready(env, lambda e: fired.append("sibling-a")), 5.0)
    env.schedule_at(_ready(env, lambda e: fired.append("sibling-b")), 5.0)
    env.run()
    assert fired == ["parent", "urgent-child", "sibling-a", "sibling-b", "normal-child"]
    assert env.now == 5.0


def test_pending_set_grows_and_shrinks_with_load():
    env = Environment()
    for index in range(500):
        env.schedule_at(_ready(env, lambda event: None), float(index))
    state = env.kernel_state()
    assert (state["pending"], state["event_id"]) == (500, 500)
    env.run(until=250.0)
    assert env.kernel_state()["pending"] == 250
    assert env.peek() == 250.0
    env.run()
    state = env.kernel_state()
    assert (state["pending"], state["events_processed"]) == (0, 500)
    assert env.peek() == inf


def test_pending_entries_is_a_snapshot():
    env = Environment()
    env.timeout(2.0)
    env.timeout(1.0)
    entries = env.pending_entries()
    assert [entry[0] for entry in entries] == [1.0, 2.0]
    entries.clear()
    assert len(env.pending_entries()) == 2
    assert env.peek() == 1.0


def test_scheduling_into_the_past_is_rejected():
    env = Environment()
    env.run(until=10.0)
    before = env.kernel_state()
    with pytest.raises(ValueError):
        env.schedule_at(_ready(env, lambda event: None), 5.0)
    with pytest.raises(ValueError):
        env.timeout_at(5.0)
    # Nothing was pushed and no event id was spent.
    assert env.kernel_state() == before


def test_timeout_at_fires_at_the_exact_float():
    # now + (at - now) rounds to 7.699999999999999 for these two values.
    start, at = 1.1, 7.7
    assert start + (at - start) != at
    env = Environment()
    env.run(until=start)
    assert env.now == start
    timeout = env.timeout_at(at, value="done")
    assert env.run(until=timeout) == "done"
    assert env.now == at


def test_run_until_an_event_that_never_fires_raises():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(RuntimeError, match="never triggered"):
        env.run(until=env.event())
    assert env.now == 1.0
    assert env.processed_events == 1


# -- the drain-order properties ------------------------------------------------

#: Times drawn from a small grid (forcing ties) plus arbitrary magnitudes.
times = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 300.0]),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
)
priorities = st.sampled_from([URGENT, NORMAL, NORMAL])

#: A reactive schedule: initial (time, priority) pairs, plus for each initial
#: entry a list of (delay, priority) children scheduled *when it fires* —
#: exactly how simulation callbacks schedule follow-up events, including
#: zero-delay children that tie with still-pending entries.
schedules = st.tuples(
    st.lists(st.tuples(times, priorities), max_size=40),
    st.lists(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.0, 0.25, 1000.0]), priorities),
            max_size=3,
        ),
        max_size=40,
    ),
)


def reference_drain(initial, children):
    """The contract itself: repeatedly take the least ``(time, prio, id)``."""
    pending = []
    spawns = {}
    for index, (time, priority) in enumerate(initial):
        eid = len(pending) + 1
        pending.append((time, priority, eid))
        if index < len(children):
            spawns[eid] = children[index]
    next_eid = len(pending)
    order = []
    while pending:
        entry = min(pending)
        pending.remove(entry)
        order.append(entry)
        for delay, priority in spawns.pop(entry[2], ()):
            next_eid += 1
            pending.append((entry[0] + delay, priority, next_eid))
    return order


def kernel_drain(initial, children, horizons=()):
    """Drain the same schedule through :class:`Environment`.

    The events are fired by ``run(until=h)`` for each of the ascending
    *horizons* in turn, then by one final ``run()``.  Each callback records its own
    ``(time, priority, id)``, ids counted in scheduling order as in the
    reference.
    """
    env = Environment()
    order = []
    eids = 0

    def push(at, priority, kids):
        nonlocal eids
        eids += 1
        key = (at, priority, eids)

        def fire(event):
            order.append(key)
            for delay, child_priority in kids:
                push(env.now + delay, child_priority, ())

        env.schedule_at(_ready(env, fire), at, priority=priority)

    for index, (time, priority) in enumerate(initial):
        push(time, priority, children[index] if index < len(children) else ())
    for horizon in horizons:
        env.run(until=horizon)
    env.run()
    assert env.processed_events == len(order)
    return order


@DETERMINISTIC
@given(schedule=schedules)
def test_kernel_drains_reactive_schedules_in_reference_order(schedule):
    initial, children = schedule
    order = kernel_drain(initial, children)
    assert order == reference_drain(initial, children)
    assert len(set(order)) == len(order)
    # Reactive children may legally fire *before* entries that sort after
    # their parent (an urgent zero-delay child sorts before its own already
    # fired parent), so full sortedness is not the oracle.  Restricted to
    # the up-front entries the drain order must be exactly their sorted
    # order.
    initial_fired = [entry for entry in order if entry[2] <= len(initial)]
    assert initial_fired == sorted(initial_fired)


@DETERMINISTIC
@given(schedule=schedules, horizons=st.lists(times, max_size=6))
def test_chunked_drain_matches_one_straight_run(schedule, horizons):
    """``run(until=t)`` chunks never reorder events, whatever the cut points.

    An event scheduled at exactly a horizon stays pending across the cut
    and fires in its ordinary place afterwards.
    """
    initial, children = schedule
    straight = kernel_drain(initial, children)
    assert kernel_drain(initial, children, sorted(horizons)) == straight


@DETERMINISTIC
@given(entries=st.lists(st.tuples(times, priorities), max_size=60))
def test_peek_agrees_with_the_reference_minimum(entries):
    env = Environment()
    pending = []
    for time, priority in entries:
        env.schedule_at(_ready(env, lambda event: None), time, priority=priority)
        pending.append(time)
        assert env.peek() == min(pending)
    while pending:
        head = min(pending)
        assert env.peek() == head
        _fire_next_instant(env)
        pending = [time for time in pending if time != head]
    assert env.peek() == inf
