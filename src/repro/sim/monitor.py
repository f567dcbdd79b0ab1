"""Measurement primitives used by the metrics layer.

The experimental section of the paper reports cumulative distributions,
utilization-over-time curves and cumulative counts of malleability messages.
These are all derived from two kinds of raw observations:

* *time series* — step functions of simulated time (e.g. number of busy
  processors), captured with :class:`TimeSeries`;
* *counters* — monotonically increasing event counts with timestamps,
  captured with :class:`Counter`.

:meth:`TimeSeries.time_average` gives the per-job "average number of
processors over the execution time" metric.
"""

from __future__ import annotations

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
        # Each segment adds ``value * dt`` and ``dt``, in time order, then
        # one division: metrics digests pin the bits of this arithmetic.
        value = self.value_at(start)
        last = start
        weighted = duration = 0.0
        for t, v in zip(self.times, self.values):
            if t <= start:
                continue
            if t >= end:
                break
            weighted += value * (t - last)
            duration += t - last
            last, value = t, v
        weighted += value * (end - last)
        duration += end - last
        return value if duration <= 0 else weighted / duration


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
