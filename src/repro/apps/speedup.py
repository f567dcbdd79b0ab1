"""Speedup models: how execution time scales with the number of processors.

A :class:`SpeedupModel` answers two questions about an application:

* ``execution_time(n)`` — how long the whole application would take if it ran
  from start to finish on *n* processors;
* ``speedup(n)`` — the ratio ``execution_time(1) / execution_time(n)``.

The paper does not publish analytic speedup curves; it publishes measured
scaling curves (Figure 6).  We therefore provide several standard parametric
models (Amdahl, Downey, power-law) plus :class:`TabulatedSpeedup`, which
interpolates measured points — the latter is used to calibrate the FT and
GADGET-2 profiles to Figure 6.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Sequence, Tuple


class SpeedupModel(ABC):
    """Abstract model of an application's parallel scaling behaviour."""

    @abstractmethod
    def execution_time(self, processors: int) -> float:
        """Execution time of the full application on *processors* processors."""

    def speedup(self, processors: int) -> float:
        """Speedup on *processors* processors relative to one processor."""
        return self.execution_time(1) / self.execution_time(processors)

    def efficiency(self, processors: int) -> float:
        """Parallel efficiency ``speedup(n) / n``."""
        self._check(processors)
        return self.speedup(processors) / processors

    def work_rate(self, processors: int) -> float:
        """Fraction of the total work completed per unit time on *processors*."""
        return 1.0 / self.execution_time(processors)

    def best_size(self, max_processors: int) -> int:
        """Processor count in ``[1, max_processors]`` minimising execution time."""
        if max_processors < 1:
            raise ValueError("max_processors must be >= 1")
        best_n, best_t = 1, self.execution_time(1)
        for n in range(2, max_processors + 1):
            t = self.execution_time(n)
            if t < best_t:
                best_n, best_t = n, t
        return best_n

    @staticmethod
    def _check(processors: int) -> None:
        if processors < 1:
            raise ValueError(f"processor count must be >= 1, got {processors}")


class AmdahlSpeedup(SpeedupModel):
    """Amdahl's law: a fixed *serial_fraction* of the work cannot be parallelised.

    Parameters
    ----------
    sequential_time:
        Execution time on one processor.
    serial_fraction:
        Fraction of the work (in ``[0, 1]``) that runs sequentially.
    overhead_per_processor:
        Optional per-processor overhead added linearly (models communication
        cost and produces the U-shaped curves of real applications).
    """

    def __init__(
        self,
        sequential_time: float,
        serial_fraction: float,
        overhead_per_processor: float = 0.0,
    ) -> None:
        if sequential_time <= 0:
            raise ValueError("sequential_time must be positive")
        if not 0.0 <= serial_fraction <= 1.0:
            raise ValueError("serial_fraction must lie in [0, 1]")
        if overhead_per_processor < 0:
            raise ValueError("overhead_per_processor must be non-negative")
        self.sequential_time = float(sequential_time)
        self.serial_fraction = float(serial_fraction)
        self.overhead_per_processor = float(overhead_per_processor)

    def execution_time(self, processors: int) -> float:
        self._check(processors)
        serial = self.serial_fraction * self.sequential_time
        parallel = (1.0 - self.serial_fraction) * self.sequential_time / processors
        overhead = self.overhead_per_processor * (processors - 1)
        return serial + parallel + overhead

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AmdahlSpeedup(sequential_time={self.sequential_time}, "
            f"serial_fraction={self.serial_fraction}, "
            f"overhead_per_processor={self.overhead_per_processor})"
        )


class DowneySpeedup(SpeedupModel):
    """Downey's parallel-speedup model for moldable/malleable jobs.

    The model (A. Downey, "A model for speedup of parallel programs", 1997)
    characterises a job by its average parallelism *A* and the coefficient of
    variation of parallelism *sigma*.  It is widely used to synthesise
    realistic speedup curves for scheduling studies, which makes it a natural
    baseline alongside the measured curves of Figure 6.
    """

    def __init__(self, sequential_time: float, average_parallelism: float, sigma: float) -> None:
        if sequential_time <= 0:
            raise ValueError("sequential_time must be positive")
        if average_parallelism < 1:
            raise ValueError("average_parallelism must be >= 1")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sequential_time = float(sequential_time)
        self.A = float(average_parallelism)
        self.sigma = float(sigma)

    def speedup(self, processors: int) -> float:
        self._check(processors)
        n = float(processors)
        A, sigma = self.A, self.sigma
        if sigma <= 1.0:
            # Low-variance regime.
            if n <= A:
                denom = A + sigma * (n - 1) / 2.0
                s = A * n / denom
            elif n <= 2 * A - 1:
                denom = sigma * (A - 0.5) + n * (1 - sigma / 2.0)
                s = A * n / denom
            else:
                s = A
        else:
            # High-variance regime.
            if n <= A + A * sigma - sigma:
                denom = sigma * (n + A - 1)
                s = n * A * (sigma + 1) / denom
            else:
                s = A
        return max(1.0, min(s, n))

    def execution_time(self, processors: int) -> float:
        return self.sequential_time / self.speedup(processors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DowneySpeedup(sequential_time={self.sequential_time}, "
            f"average_parallelism={self.A}, sigma={self.sigma})"
        )


class PowerLawSpeedup(SpeedupModel):
    """Power-law speedup ``S(n) = n ** alpha`` with ``alpha`` in ``(0, 1]``.

    A convenient one-parameter family for synthetic workloads: ``alpha = 1``
    is perfect scaling, smaller values capture diminishing returns.
    """

    def __init__(self, sequential_time: float, alpha: float = 0.9) -> None:
        if sequential_time <= 0:
            raise ValueError("sequential_time must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self.sequential_time = float(sequential_time)
        self.alpha = float(alpha)

    def execution_time(self, processors: int) -> float:
        self._check(processors)
        return self.sequential_time / (processors ** self.alpha)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PowerLawSpeedup(sequential_time={self.sequential_time}, alpha={self.alpha})"


class TabulatedSpeedup(SpeedupModel):
    """Speedup model interpolating measured ``(processors, execution time)`` points.

    Execution times between measured processor counts are interpolated
    log-linearly in the processor count; beyond the largest measured point the
    last execution time is reused (flat extrapolation), matching the paper's
    observation that allocating more than the best size simply wastes
    processors.
    """

    def __init__(self, points: Iterable[Tuple[int, float]]) -> None:
        table: Dict[int, float] = {}
        for processors, time in points:
            if processors < 1:
                raise ValueError("processor counts must be >= 1")
            if time <= 0:
                raise ValueError("execution times must be positive")
            table[int(processors)] = float(time)
        if not table:
            raise ValueError("at least one (processors, time) point is required")
        self._sizes: Sequence[int] = sorted(table)
        self._times: Sequence[float] = [table[n] for n in self._sizes]

    def execution_time(self, processors: int) -> float:
        self._check(processors)
        sizes, times = self._sizes, self._times
        if processors <= sizes[0]:
            # Extrapolate below the first point assuming linear slowdown.
            return times[0] * sizes[0] / processors
        if processors >= sizes[-1]:
            return times[-1]
        idx = bisect.bisect_right(sizes, processors)
        n_lo, n_hi = sizes[idx - 1], sizes[idx]
        t_lo, t_hi = times[idx - 1], times[idx]
        if n_lo == processors:
            return t_lo
        # Log-linear interpolation in n gives smooth, monotone curves between
        # measured points.
        frac = (math.log(processors) - math.log(n_lo)) / (math.log(n_hi) - math.log(n_lo))
        return t_lo + frac * (t_hi - t_lo)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TabulatedSpeedup({list(zip(self._sizes, self._times))!r})"
