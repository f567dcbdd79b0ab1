"""Unit tests of events, timeouts and interrupts."""

from __future__ import annotations

import pytest

from repro.sim import Environment, Interrupt


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
    timeout = env.timeout(5, value="done")

    def proc(env, timeout):
        value = yield timeout
        return (env.now, value)

    process = env.process(proc(env, timeout))
    env.run()
    assert process.value == (5, "done")


def test_interrupt_carries_cause():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            return (env.now, interrupt.cause)

    def interrupter(env, victim):
        yield env.timeout(7)
        victim.interrupt(cause={"reason": "shrink"})

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == (7, {"reason": "shrink"})


def test_interrupted_process_can_keep_waiting():
    env = Environment()

    def sleeper(env):
        interrupted_at = None
        try:
            yield env.timeout(100)
        except Interrupt:
            interrupted_at = env.now
        yield env.timeout(10)
        return (interrupted_at, env.now)

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == (3, 13)


def test_cannot_interrupt_finished_process():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()
    failures = []

    def selfish(env):
        try:
            env.active_process.interrupt()
        except RuntimeError as error:
            failures.append(str(error))
        yield env.timeout(1)

    env.process(selfish(env))
    env.run()
    assert len(failures) == 1


def test_yielding_a_non_event_raises_type_error():
    env = Environment()

    def bad(env):
        yield 42  # type: ignore[misc]

    env.process(bad(env))
    with pytest.raises(TypeError):
        env.run()


def test_process_is_alive_and_target():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    process = env.process(proc(env))
    assert process.is_alive
    env.run()
    assert not process.is_alive
    assert process.target is None
