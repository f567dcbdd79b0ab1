"""Background load generated by local users.

One of the paper's stated differentiators from prior malleability work is
that "in multiclusters, it is common that some of the users bypass the
multicluster-level scheduler", and that KOALA handles this by periodically
polling its information service so the malleability manager sees the load
those users create.

:class:`BackgroundLoadGenerator` creates that load: a Poisson (or fixed-rate)
stream of rigid jobs submitted straight to a cluster's local resource
manager.  The paper's main experiments keep background load to the incidental
activity of concurrent users; the ablation benchmarks crank it up to study
resilience.

The generator creates no simulation process.  It is a callback chain whose
links sit at the heap positions of the former generator process's events:
construction schedules an URGENT relay (the process's ``Initialize``), whose
callback pushes the ``start_time`` timeout or draws the first gap; each gap
timeout's callback checks ``end_time``, draws the job's processors and
duration, submits it, and draws the next gap and pushes its timeout.  So the
stream makes the same draws and the same pushes as the process did, in the
same order, without a process resume per local job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.local_rm import LocalJob, LocalResourceManager
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event


@dataclass(frozen=True)
class BackgroundLoadSpec:
    """Statistical description of one cluster's background load.

    Attributes
    ----------
    mean_interarrival:
        Mean time between consecutive local job submissions (seconds).
        ``float("inf")`` disables the stream entirely.
    mean_duration:
        Mean runtime of a local job (exponentially distributed).
    min_processors / max_processors:
        Local job sizes are drawn uniformly from this inclusive range.
    start_time / end_time:
        The stream is only active inside this window (``end_time`` of
        ``None`` means "until the simulation ends").
    """

    mean_interarrival: float = float("inf")
    mean_duration: float = 300.0
    min_processors: int = 1
    max_processors: int = 4
    start_time: float = 0.0
    end_time: Optional[float] = None

    def __post_init__(self) -> None:
        # Written so that NaN fails every check: ``max(1.0, nan)`` would turn
        # a NaN mean duration into 1 s jobs, and a NaN window would silently
        # stop or start the stream.
        if not self.mean_interarrival > 0:
            raise ValueError(f"mean_interarrival must be positive, got {self.mean_interarrival!r}")
        if not self.mean_duration > 0:
            raise ValueError(f"mean_duration must be positive, got {self.mean_duration!r}")
        if not (self.min_processors >= 1 and self.max_processors >= self.min_processors):
            raise ValueError("invalid processor range")
        if not self.start_time >= 0:
            raise ValueError(f"start_time must be non-negative, got {self.start_time!r}")
        if self.end_time is not None and not self.end_time >= self.start_time:
            raise ValueError(f"end_time must be >= start_time, got {self.end_time!r}")

    @property
    def enabled(self) -> bool:
        """Whether the stream produces any jobs at all."""
        return self.mean_interarrival != float("inf")


class BackgroundLoadGenerator:
    """A stream of rigid local jobs submitted directly to one cluster's LRM."""

    def __init__(
        self,
        env: Environment,
        local_rm: LocalResourceManager,
        spec: BackgroundLoadSpec,
        rng: np.random.Generator,
        *,
        name: str = "",
    ) -> None:
        self.env = env
        self.local_rm = local_rm
        self.spec = spec
        self.rng = rng
        self.name = name or f"background@{local_rm.cluster.name}"
        #: Local jobs submitted so far (the count names each job).
        self.submitted_count = 0
        if spec.enabled:
            env.relay(self._start, URGENT)

    def _start(self, _event: Event) -> None:
        if self.spec.start_time > 0:
            self.env.timeout(self.spec.start_time).callbacks.append(self._next_gap)
        else:
            self._next_gap()

    def _next_gap(self, _event: Optional[Event] = None) -> None:
        end_time = self.spec.end_time
        if end_time is None or self.env._now < end_time:
            gap = float(self.rng.exponential(self.spec.mean_interarrival))
            self.env.timeout(gap).callbacks.append(self._arrive)

    def _arrive(self, _event: Event) -> None:
        end_time = self.spec.end_time
        if end_time is not None and self.env._now >= end_time:
            return
        job = self._draw_job()
        self.submitted_count += 1
        self.local_rm.submit(job)
        self._next_gap()

    def _draw_job(self) -> LocalJob:
        processors = int(self.rng.integers(self.spec.min_processors, self.spec.max_processors + 1))
        duration = float(self.rng.exponential(self.spec.mean_duration))
        duration = max(1.0, duration)
        return LocalJob(processors=processors, duration=duration, name=f"{self.name}-{self.submitted_count + 1}")
