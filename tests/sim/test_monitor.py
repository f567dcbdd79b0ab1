"""Unit tests of the measurement primitives (TimeSeries, Counter)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, TimeSeries
from repro.sim.monitor import merge_step_functions


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------


def test_time_series_records_and_evaluates():
    series = TimeSeries(name="usage")
    series.record(0.0, 2)
    series.record(10.0, 5)
    series.record(20.0, 1)
    assert series.value_at(-1) == 0.0
    assert series.value_at(0) == 2
    assert series.value_at(9.99) == 2
    assert series.value_at(10) == 5
    assert series.value_at(15) == 5
    assert series.value_at(100) == 1


def test_time_series_rejects_out_of_order_records():
    series = TimeSeries()
    series.record(10.0, 1)
    with pytest.raises(ValueError):
        series.record(5.0, 2)


def test_time_series_same_instant_update_keeps_latest():
    series = TimeSeries()
    series.record(3.0, 1)
    series.record(3.0, 9)
    assert len(series) == 1
    assert series.value_at(3.0) == 9


def test_time_series_time_average_weighted_by_duration():
    series = TimeSeries()
    series.record(0.0, 2)
    series.record(10.0, 6)  # value 2 for 10s, then 6 for 10s
    assert series.time_average(0.0, 20.0) == pytest.approx(4.0)
    # Restricting the window changes the weighting.
    assert series.time_average(5.0, 15.0) == pytest.approx(4.0)
    assert series.time_average(10.0, 20.0) == pytest.approx(6.0)


def test_time_series_sample_matches_value_at():
    series = TimeSeries()
    series.record(0.0, 1)
    series.record(5.0, 3)
    sampled = series.sample([0, 2, 5, 7])
    assert list(sampled) == [1, 1, 3, 3]


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------


def test_counter_cumulative_counts():
    counter = Counter(name="grow")
    counter.increment(1.0)
    counter.increment(2.0, amount=3)
    counter.increment(5.0)
    times, counts = counter.cumulative()
    assert list(times) == [1.0, 2.0, 5.0]
    assert list(counts) == [1.0, 4.0, 5.0]
    assert counter.total == 5
    assert counter.count_before(2.5) == 4
    assert counter.count_before(0.5) == 0


def test_counter_rejects_negative_and_out_of_order():
    counter = Counter()
    counter.increment(3.0)
    with pytest.raises(ValueError):
        counter.increment(2.0)
    with pytest.raises(ValueError):
        counter.increment(4.0, amount=-1)


def test_merge_step_functions_sums_values():
    a = TimeSeries()
    a.record(0.0, 1)
    a.record(10.0, 3)
    b = TimeSeries()
    b.record(5.0, 2)
    times, total = merge_step_functions([a, b])
    assert list(times) == [0.0, 5.0, 10.0]
    assert list(total) == [1.0, 3.0, 5.0]


def test_merge_step_functions_empty():
    times, total = merge_step_functions([])
    assert len(times) == 0 and len(total) == 0


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------


class _IncrementalMean:
    """The arithmetic ``time_average`` used to delegate to a statistics class.

    Each change point adds ``value * dt`` to a weighted sum and ``dt`` to a
    duration; closing the window adds the last segment; the mean is one
    division.  Metrics digests pin the bits of every per-job average, so
    ``time_average`` must reproduce this exactly, not approximately.
    """

    def __init__(self, start_time, value):
        self.value = value
        self._last_time = start_time
        self._weighted_sum = 0.0
        self._duration = 0.0

    def update(self, time, value):
        dt = time - self._last_time
        self._weighted_sum += self.value * dt
        self._duration += dt
        self._last_time = time
        self.value = value

    def mean(self, end_time):
        self.update(end_time, self.value)
        if self._duration <= 0:
            return self.value
        return self._weighted_sum / self._duration


def _reference_time_average(series, start, end):
    if not series.times:
        return 0.0
    start = series.times[0] if start is None else start
    end = series.times[-1] if end is None else end
    if end <= start:
        return series.value_at(start)
    stat = _IncrementalMean(start, series.value_at(start))
    for t, v in zip(series.times, series.values):
        if t <= start:
            continue
        if t >= end:
            break
        stat.update(t, v)
    return stat.mean(end)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
instants = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


@given(
    steps=st.lists(st.tuples(instants, finite), max_size=25),
    start=st.one_of(st.none(), instants),
    end=st.one_of(st.none(), instants),
)
@settings(max_examples=300, deadline=None)
def test_time_average_is_bit_exact_against_the_incremental_mean(steps, start, end):
    """Random step functions and windows give the very same float."""
    series = TimeSeries()
    for time, value in sorted(steps, key=lambda step: step[0]):
        series.record(time, value)
    assert series.time_average(start, end) == _reference_time_average(series, start, end)


@given(
    values=st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_time_average_lies_between_min_and_max(values):
    """The time-weighted average of a step function is bounded by its extremes."""
    series = TimeSeries()
    for index, value in enumerate(values):
        series.record(float(index), value)
    average = series.time_average(0.0, float(len(values)))
    assert min(values) - 1e-9 <= average <= max(values) + 1e-9


@given(
    increments=st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.integers(min_value=0, max_value=5)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_counter_cumulative_is_monotone(increments):
    """Cumulative counts never decrease, whatever the increment pattern."""
    counter = Counter()
    time = 0.0
    for gap, amount in increments:
        time += gap
        counter.increment(time, amount)
    _, counts = counter.cumulative()
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counter.total == pytest.approx(float(np.sum([a for _, a in increments])))
