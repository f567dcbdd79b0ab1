"""Unit tests of the kernel fast path: timeout pooling and event accounting.

The environment recycles ``Timeout`` events produced by the plain
``yield env.timeout(d)`` pattern (the overwhelming majority of all events in
a scheduler run).  These tests pin down the recycling contract: plain sleeps
are recycled with fresh state, and the kernel-level patterns through which a
reference outlives the event — ``run(until=...)``, interrupted sleeps — are
excluded from the pool.

The contract has a documented sharp edge the kernel cannot detect: *user*
code that stores a plain-sleep timeout, yields it, and keeps reading the
reference after resuming observes recycled state (the object may already
describe a later sleep).  Fired plain-sleep timeouts must not be retained;
every timeout in this repository is yielded inline.
"""

from __future__ import annotations

from repro.sim import Environment, Interrupt


def test_plain_sleep_timeouts_are_recycled():
    env = Environment()
    seen = []

    def proc(env):
        for _ in range(3):
            timeout = env.timeout(1)
            seen.append(timeout)
            yield timeout

    env.process(proc(env))
    env.run()
    # The first sleep's event is back in the pool by the time the third sleep
    # is created (the second is created while the first is still being
    # dispatched), so the third reuses the first's object and callback list.
    assert seen[2] is seen[0]
    assert seen[1] is not seen[0]


def test_recycled_timeouts_carry_fresh_delay_and_value():
    env = Environment()
    received = []

    def proc(env):
        for delay, value in ((1, "a"), (2, "b"), (4, "c"), (8, "d")):
            received.append((env.now, (yield env.timeout(delay, value))))

    env.process(proc(env))
    env.run()
    assert received == [(0, "a"), (1, "b"), (3, "c"), (7, "d")]
    assert env.now == 15


def test_run_until_timeout_is_not_recycled():
    env = Environment()
    stop = env.timeout(5, "done")
    assert env.run(until=stop) == "done"
    assert stop not in env._timeout_pool
    assert stop.value == "done"


def test_interrupted_sleep_is_not_recycled_and_pooling_survives():
    env = Environment()
    target = []

    def sleeper(env):
        timeout = env.timeout(100)
        target.append(timeout)
        try:
            yield timeout
        except Interrupt:
            pass
        yield env.timeout(10)
        return env.now

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == 13
    # The abandoned 100-second sleep fired with no callbacks attached and
    # must not have entered the pool.
    assert target[0] not in env._timeout_pool


def test_pool_reuse_keeps_many_sequential_sleeps_correct():
    env = Environment()
    ticks = []

    def ticker(env, period, count):
        for _ in range(count):
            yield env.timeout(period)
            ticks.append(env.now)

    env.process(ticker(env, 1, 50))
    env.process(ticker(env, 2, 25))
    env.run()
    assert env.now == 50
    assert ticks.count(50) == 2
    assert len(ticks) == 75
    # Steady state: the pool holds a handful of events, not one per sleep.
    assert 0 < len(env._timeout_pool) <= 4


def test_processed_events_counter_advances():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        yield env.timeout(1)

    process = env.process(proc(env))
    assert env.processed_events == 0
    env.run()
    # Initialize + two timeouts.  Nothing waits on the process, so it ends
    # without scheduling its exit event.
    assert env.processed_events == 3
    assert process.processed


def test_processed_events_counted_across_chunked_runs():
    env = Environment()
    env.timeout(1)
    env.timeout(3)
    env.run(until=2)
    assert env.processed_events == 1
    env.run(until=2)  # the current time: a no-op
    assert env.processed_events == 1
    env.run()
    assert env.processed_events == 2
    env.run()  # an empty schedule fires nothing
    assert env.processed_events == 2
