"""Unit tests of the benchmark's own arithmetic (``python3 -m pytest perfbench``)."""

import math
from fractions import Fraction

import pytest

import measure


def test_tail_leaves_ten_samples_beyond_it():
    samples = list(range(1, 101))  # 1..100
    value, percentile = measure.tail(samples)
    assert value == 90
    assert sum(1 for sample in samples if sample > value) == 10
    assert percentile == 90.0


def test_tail_is_order_independent_and_exact_at_eleven_samples():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    value, percentile = measure.tail(samples)
    assert value == 1.0  # the lowest of 11 has exactly 10 beyond it
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_of_ten_or_fewer_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert measure.tail(list(range(10))) == (9, 100.0)
    with pytest.raises(ValueError):
        measure.tail([])


def test_failed_ratio_counts_failures_over_attempts():
    assert measure.failed_ratio(40, 0) == 0.0
    assert measure.failed_ratio(40, 10) == 0.25
    with pytest.raises(ValueError):
        measure.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        measure.failed_ratio(3, 4)


def test_failed_request_misses_every_latency_limit():
    latencies = [
        measure.request_latency(0.002, True),
        measure.request_latency(0.004, True),
        measure.request_latency(0.001, False),
    ]
    assert latencies[:2] == pytest.approx([2.0, 4.0])
    assert math.isinf(latencies[2])
    # Fast as it was, the failed request meets no limit, however generous.
    assert [latency <= 1e12 for latency in latencies] == [True, True, False]
    # And it counts in the percentiles: most requests failing moves the median.
    assert math.isinf(measure.median(latencies + [math.inf]))


def test_split_phases_separates_setup_from_simulation():
    setup, simulation = measure.split_phases(10.0, 10.5, 13.0)
    assert setup == pytest.approx(0.5)
    assert simulation == pytest.approx(2.5)
    assert setup + simulation == pytest.approx(13.0 - 10.0)
    with pytest.raises(ValueError):
        measure.split_phases(10.0, 9.0, 13.0)


def test_layer_of_maps_files_to_repro_modules():
    assert measure.layer_of("/x/src/repro/sim/core.py") == "sim"
    assert measure.layer_of("/x/src/repro/koala/placement.py") == "koala"
    assert measure.layer_of("/x/src/repro/refs.py") == measure.OTHER
    assert measure.layer_of("/x/src/repro/stats/aggregate.py") == measure.OTHER
    assert measure.layer_of("~") == measure.OTHER
    assert measure.layer_of("/usr/lib/python3/heapq.py") == measure.OTHER


def _stats():
    sim = ("/src/repro/sim/core.py", 10, "run")
    place = ("/src/repro/koala/placement.py", 20, "place")
    worst = ("/src/repro/cluster/state.py", 30, "worst_fit")
    builtin = ("~", 0, "<built-in method builtins.len>")
    argmax = ("/site-packages/numpy/core/fromnumeric.py", 5, "argmax")
    inner = ("~", 0, "<method 'argmax' of 'numpy.ndarray' objects>")
    top = ("bench.py", 1, "main")
    # key: (cc, nc, tottime, cumtime, callers{caller: (cc, nc, tottime, cumtime)})
    return {
        top: (1, 1, 0.5, 10.0, {}),
        sim: (1, 1, 2.0, 9.0, {top: (1, 1, 2.0, 9.0)}),
        place: (5, 5, 1.0, 3.0, {sim: (5, 5, 1.0, 3.0)}),
        worst: (4, 4, 1.5, 3.0, {place: (4, 4, 1.5, 3.0)}),
        # len() is called by sim (0.3s of it) and by placement (0.1s).
        builtin: (9, 9, 0.4, 0.4, {sim: (6, 6, 0.3, 0.3), place: (3, 3, 0.1, 0.1)}),
        # numpy's Python wrapper and the C method it calls, both from cluster.
        argmax: (4, 4, 0.2, 1.2, {worst: (4, 4, 0.2, 1.2)}),
        inner: (4, 4, 1.0, 1.0, {argmax: (4, 4, 1.0, 1.0)}),
    }


def test_self_time_charges_builtins_and_numpy_to_the_calling_module():
    totals = measure.self_time_by_layer(_stats())
    assert totals["sim"] == pytest.approx(2.0 + 0.3)
    assert totals["koala"] == pytest.approx(1.0 + 0.1)
    # numpy's wrapper and the method below it follow the chain up to cluster.
    assert totals["cluster"] == pytest.approx(1.5 + 0.2 + 1.0)
    assert totals[measure.OTHER] == pytest.approx(0.5)
    assert sum(totals.values()) == pytest.approx(sum(e[2] for e in _stats().values()))


def test_self_time_survives_recursion_outside_repro():
    loop = ("/usr/lib/python3/selectors.py", 1, "select")
    stats = {
        loop: (2, 3, 0.6, 0.6, {loop: (1, 1, 0.2, 0.2), ("/src/repro/service/daemon.py", 1, "run"): (1, 1, 0.4, 0.4)}),
        ("/src/repro/service/daemon.py", 1, "run"): (1, 1, 0.1, 0.7, {}),
    }
    totals = measure.self_time_by_layer(stats)
    assert sum(totals.values()) == pytest.approx(0.7)
    assert totals["service"] >= 0.1 + 0.4


def test_call_counts_are_exact_per_module():
    stats = _stats()
    assert measure.calls_by_layer(stats)["cluster"] == 4
    assert measure.calls_by_layer(stats)["sim"] == 1
    assert measure.calls_named(stats, "place", ("koala", "policies")) == 5


def test_median_over_seeds_weighs_every_input_seed_once():
    # Seed 0 got three passes and seed 1 one: a plain median over the four
    # passes would be 10.5; per seed first, it is the mean of 10 and 20.
    samples = [(0, 10.0), (1, 20.0), (0, 11.0), (0, 9.0)]
    assert measure.median_over_seeds(samples) == 15.0
    # One more pass of a seed that already has several moves nothing.
    assert measure.median_over_seeds(samples + [(0, 10.0)]) == 15.0
    with pytest.raises(ValueError):
        measure.median_over_seeds([])


def test_seed_weighted_pool_weighs_as_much_as_one_pass_per_seed():
    pool = measure.seed_weighted([(0, [3.0, 1.0]), (1, [2.0, 4.0]), (0, [5.0, 6.0])])
    assert [value for value, _ in pool] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert [weight for _, weight in pool] == [Fraction(1, 2), 1, Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2)]
    assert sum(weight for _, weight in pool) == 4


def test_weighted_tail_is_the_plain_tail_with_one_pass_per_seed():
    latencies = [float(value) for value in range(1, 41)]
    pool = measure.seed_weighted((seed, latencies[seed::4]) for seed in range(4))
    assert measure.weighted_tail(pool) == measure.tail(latencies) == (30.0, 75.0)


def test_weighted_tail_keeps_its_percentile_when_a_seed_gets_another_pass():
    # Two seeds of 16 requests each: weight 32, so p68.75 has 10 beyond it.
    passes = [(0, [1.0] * 8 + [5.0] * 8), (1, [2.0] * 8 + [7.0] * 8)]
    assert measure.weighted_tail(measure.seed_weighted(passes)) == (5.0, pytest.approx(100.0 * 22 / 32))
    # A second, slower pass of seed 1 halves the weight of each of its
    # requests; the pool still weighs 32 and the percentile stays.
    value, percentile = measure.weighted_tail(measure.seed_weighted(passes + [(1, [9.0] * 16)]))
    assert value == 7.0  # beyond it: sixteen 9.0s and four 7.0s, each weighing 1/2
    assert percentile == pytest.approx(100.0 * 22 / 32)
    with pytest.raises(ValueError):
        measure.weighted_tail([])


def test_quartile_spread_is_relative_to_the_median():
    assert measure.quartile_spread([10.0] * 10) == 0.0
    assert measure.quartile_spread(list(range(1, 11))) == pytest.approx((8.25 - 2.75) / 5.5)
