"""Microbenchmarks of the discrete-event simulation kernel.

Not a paper figure, but the substrate every experiment stands on: these
benchmarks track the event-processing throughput of the engine and the cost
of the counted resource, so performance regressions in the kernel are
caught before they show up as slow experiments.
"""

from __future__ import annotations

import pytest

from repro.sim import Environment
from repro.sim.resources import Resource

pytestmark = pytest.mark.bench  # deselected by default (see pyproject.toml); run with -m bench


def run_timeout_chain(events: int = 20_000) -> float:
    env = Environment()

    def ticker(env):
        for _ in range(events):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    return env.now


def run_resource_contention(users: int = 500, cycles: int = 20) -> int:
    env = Environment()
    resource = Resource(env, capacity=8)
    completions = []

    def user(env, resource):
        for _ in range(cycles):
            with resource.request() as request:
                yield request
                yield env.timeout(1.0)
        completions.append(env.now)

    for _ in range(users):
        env.process(user(env, resource))
    env.run()
    return len(completions)


def run_condition_churn(waiters: int = 2_000) -> int:
    """Allocation-heavy mix: every waiter builds AllOf/AnyOf conditions.

    Exercises exactly the classes that declare ``__slots__`` (Event, Timeout,
    Process, AllOf/AnyOf), so this benchmark tracks the win from slotted
    events: less memory per event and faster attribute access in the hot
    resume loop.
    """
    env = Environment()
    done = []

    def waiter(env):
        yield env.all_of([env.timeout(1.0), env.timeout(2.0)])
        yield env.any_of([env.timeout(5.0), env.timeout(1.0)])
        done.append(env.now)

    for _ in range(waiters):
        env.process(waiter(env))
    env.run()
    return len(done)


def test_bench_engine_timeout_throughput(benchmark):
    final_time = benchmark(run_timeout_chain)
    assert final_time == 20_000


def test_bench_engine_condition_churn(benchmark):
    completed = benchmark(run_condition_churn)
    assert completed == 2_000


def test_bench_engine_resource_contention(benchmark):
    completed = benchmark(run_resource_contention)
    assert completed == 500
