"""Unit tests of the kernel's event accounting.

``Environment.processed_events`` counts the events the run loop fires.  It
counts work, not time, so the exact goldens pin each run's count; these
tests pin what one count covers.
"""

from __future__ import annotations

from repro.sim import Environment
from repro.sim.events import URGENT


def test_processed_events_counter_advances():
    env = Environment()

    def first(_relay):
        env.timeout(1).callbacks.append(lambda _event: env.timeout(1))

    env.relay(first, URGENT)
    assert env.processed_events == 0
    env.run()
    # The relay and two timeouts; a timeout with no callback still counts.
    assert env.processed_events == 3
    assert env.now == 2


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
