"""The exit event of a process is scheduled only when something waits on it.

A process is an event that succeeds when its generator returns.  When nothing
is registered on it at that moment, the exit event would fire with no
callbacks, so the kernel marks the process processed on the spot and schedules
nothing.  Anything that waits on a process (another process yielding it,
``run(until=...)``) registers before the process ends and keeps
the exit event at its usual NORMAL position, and a failing process always
schedules it so the failure can surface.
"""

from __future__ import annotations

import pytest

from repro.sim import Environment


def sleeper(env, delay, value=None):
    yield env.timeout(delay)
    return value


def observer(env, delay, action):
    """A process that runs *action* after *delay*.

    Started after the process under test, its sleep is queued behind that
    process's sleep of the same length, so *action* runs right after that
    process returns and before anything the return queues.
    """
    yield env.timeout(delay)
    action()


def test_unawaited_process_is_processed_as_soon_as_it_returns():
    env = Environment()
    process = env.process(sleeper(env, 1, "done"))
    seen = []
    env.process(
        observer(env, 1, lambda: seen.append((process.processed, process.value, process.is_alive)))
    )
    env.run()
    assert seen == [(True, "done", False)]
    # Two Initializes and two sleeps; neither process schedules an exit event.
    assert env.processed_events == 4


def test_yielded_process_resumes_its_waiter_at_the_exit_event_position():
    env = Environment()
    order = []
    child = env.process(sleeper(env, 1, "child"))

    def parent():
        value = yield child
        order.append(("parent", env.now, value))

    env.process(parent())
    env.process(observer(env, 1, lambda: order.append(("observer", env.now))))
    env.run()
    # The observer's sleep was queued before the child's exit event, so the
    # parent resumes after it, not inside the child's return.
    assert order == [("observer", 1), ("parent", 1, "child")]
    assert child.processed


def test_run_until_a_process_fires_its_exit_event_in_place():
    env = Environment()
    order = []
    process = env.process(sleeper(env, 2, "result"))
    env.process(observer(env, 2, lambda: order.append("observer")))
    assert env.run(until=process) == "result"
    # The observer's sleep was queued before the exit event that stops the run.
    assert order == ["observer"]
    assert env.now == 2
    assert process.processed


def test_unawaited_process_failure_still_raises_from_run():
    env = Environment()

    def broken(env):
        yield env.timeout(1)
        raise KeyError("lost")

    env.process(broken(env))
    with pytest.raises(KeyError, match="lost"):
        env.run()
