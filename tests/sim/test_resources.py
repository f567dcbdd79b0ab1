"""Unit tests of the counted resource primitive."""

from __future__ import annotations

import pytest

from repro.sim import Environment
from repro.sim.resources import Resource


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity_then_queues():
    env = Environment()
    resource = Resource(env, capacity=2)
    grants = []

    def user(env, resource, name, hold):
        with resource.request() as request:
            yield request
            grants.append((name, env.now))
            yield env.timeout(hold)

    env.process(user(env, resource, "a", 10))
    env.process(user(env, resource, "b", 10))
    env.process(user(env, resource, "c", 10))
    env.run()
    assert grants == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_count_and_queue_lengths():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env, resource):
        with resource.request() as request:
            yield request
            yield env.timeout(5)

    env.process(holder(env, resource))
    env.process(holder(env, resource))
    env.run(until=1)
    assert resource.count == 1
    assert len(resource.queue) == 1
    env.run()
    assert resource.count == 0


def test_resource_release_outside_with_block():
    env = Environment()
    resource = Resource(env, capacity=1)

    def user(env, resource):
        request = resource.request()
        yield request
        yield env.timeout(3)
        yield resource.release(request)
        return env.now

    process = env.process(user(env, resource))
    env.run()
    assert process.value == 3
    assert resource.count == 0
