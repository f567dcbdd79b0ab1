"""Measurement primitives used by the metrics layer.

The experimental section of the paper reports cumulative distributions,
utilization-over-time curves and cumulative counts of malleability messages.
These are all derived from two kinds of raw observations:

* *time series* — step functions of simulated time (e.g. number of busy
  processors), captured with :class:`TimeSeries`;
* *counters* — monotonically increasing event counts with timestamps,
  captured with :class:`Counter`.

:class:`TimeWeightedStat` computes time-weighted means/extremes of a step
function incrementally, which is what the per-job "average number of
processors over the execution time" metric needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


class TimeSeries:
    """A right-continuous step function sampled at change points.

    ``record(t, v)`` appends an observation meaning "from time *t* onwards the
    value is *v* (until the next observation)".

    ``record`` sits on the accumulation fast path (every application's
    allocation series is updated on every resize), so the class is slotted
    and the method touches each list once.
    """

    __slots__ = ("name", "times", "values")

    def __init__(
        self,
        name: str = "",
        times: Optional[List[float]] = None,
        values: Optional[List[float]] = None,
    ) -> None:
        self.name = name
        self.times: List[float] = [] if times is None else list(times)
        self.values: List[float] = [] if values is None else list(values)

    def record(self, time: float, value: float) -> None:
        """Record that the series takes *value* from *time* onwards."""
        times = self.times
        if times:
            last = times[-1]
            if time < last:
                raise ValueError(
                    f"observations must be recorded in time order "
                    f"(got {time} after {last})"
                )
            if time == last:
                # Same-instant update: keep the latest value only.
                self.values[-1] = value
                return
        times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, time: float) -> float:
        """Value of the step function at *time* (0.0 before the first sample)."""
        if not self.times or time < self.times[0]:
            return 0.0
        idx = int(np.searchsorted(np.asarray(self.times), time, side="right")) - 1
        return self.values[idx]

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Sample the step function at each of *times* (vectorised)."""
        probe = np.asarray(times, dtype=float)
        if not self.times:
            return np.zeros_like(probe)
        own_times = np.asarray(self.times, dtype=float)
        own_values = np.asarray(self.values, dtype=float)
        indices = np.searchsorted(own_times, probe, side="right") - 1
        result = np.where(indices >= 0, own_values[np.clip(indices, 0, len(own_values) - 1)], 0.0)
        return result

    def time_average(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Time-weighted average of the series over ``[start, end]``."""
        if not self.times:
            return 0.0
        start = self.times[0] if start is None else start
        end = self.times[-1] if end is None else end
        if end <= start:
            return self.value_at(start)
        stat = TimeWeightedStat(start_time=start, value=self.value_at(start))
        for t, v in zip(self.times, self.values):
            if t <= start:
                continue
            if t >= end:
                break
            stat.update(t, v)
        return stat.finalize(end).mean


class Counter:
    """A monotonically increasing event counter with per-event timestamps."""

    __slots__ = ("name", "times", "increments")

    def __init__(
        self,
        name: str = "",
        times: Optional[List[float]] = None,
        increments: Optional[List[float]] = None,
    ) -> None:
        self.name = name
        self.times: List[float] = [] if times is None else list(times)
        self.increments: List[float] = [] if increments is None else list(increments)

    def increment(self, time: float, amount: float = 1.0) -> None:
        """Record *amount* new occurrences at *time*."""
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        times = self.times
        if times and time < times[-1]:
            raise ValueError("counter increments must be recorded in time order")
        times.append(float(time))
        self.increments.append(float(amount))

    @property
    def total(self) -> float:
        """Total count so far."""
        return float(sum(self.increments))

    def __len__(self) -> int:
        return len(self.times)

    def cumulative(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, cumulative counts)`` suitable for plotting."""
        times = np.asarray(self.times, dtype=float)
        counts = np.cumsum(np.asarray(self.increments, dtype=float))
        return times, counts

    def count_before(self, time: float) -> float:
        """Cumulative count of occurrences recorded at or before *time*."""
        total = 0.0
        for t, inc in zip(self.times, self.increments):
            if t > time:
                break
            total += inc
        return total


@dataclass
class TimeWeightedStat:
    """Incremental time-weighted statistics of a step function.

    Feed it the change points of the function with :meth:`update`, then call
    :meth:`finalize` with the end of the observation window.  The object is
    returned by :meth:`finalize` so results can be read fluently::

        mean = TimeWeightedStat(t0, v0).update(t1, v1).finalize(t_end).mean
    """

    start_time: float
    value: float
    _last_time: float = field(init=False)
    _weighted_sum: float = field(default=0.0, init=False)
    _duration: float = field(default=0.0, init=False)
    _minimum: float = field(init=False)
    _maximum: float = field(init=False)
    _finalized: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self._last_time = self.start_time
        self._minimum = self.value
        self._maximum = self.value

    def update(self, time: float, value: float) -> "TimeWeightedStat":
        """Record that the function changes to *value* at *time*."""
        if self._finalized:
            raise RuntimeError("cannot update a finalized statistic")
        if time < self._last_time:
            raise ValueError("updates must be fed in time order")
        dt = time - self._last_time
        self._weighted_sum += self.value * dt
        self._duration += dt
        self._last_time = time
        self.value = value
        self._minimum = min(self._minimum, value)
        self._maximum = max(self._maximum, value)
        return self

    def finalize(self, end_time: float) -> "TimeWeightedStat":
        """Close the observation window at *end_time*."""
        if self._finalized:
            return self
        if end_time < self._last_time:
            raise ValueError("end_time precedes the last update")
        dt = end_time - self._last_time
        self._weighted_sum += self.value * dt
        self._duration += dt
        self._finalized = True
        return self

    @property
    def mean(self) -> float:
        """Time-weighted mean of the function over the observed window."""
        if self._duration <= 0:
            return self.value
        return self._weighted_sum / self._duration

    @property
    def minimum(self) -> float:
        """Smallest value observed."""
        return self._minimum

    @property
    def maximum(self) -> float:
        """Largest value observed."""
        return self._maximum

    @property
    def duration(self) -> float:
        """Length of the observed window."""
        return self._duration


def merge_step_functions(
    series: Iterable[TimeSeries],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum several step functions into one (e.g. per-cluster usage into total).

    Returns ``(times, values)`` of the summed step function evaluated at the
    union of all change points.
    """
    series = list(series)
    if not series:
        return np.asarray([]), np.asarray([])
    all_times = sorted({t for s in series for t in s.times})
    times = np.asarray(all_times, dtype=float)
    total = np.zeros_like(times)
    for s in series:
        total += s.sample(times)
    return times, total
