"""Collecting the metrics of one experiment run.

:class:`ExperimentMetrics` is built from a finished scheduler run (scheduler,
multicluster and malleability manager) and exposes every quantity the paper's
figures plot, already in the right form:

* per-job metrics joined into :class:`JobMetrics` records,
* CDFs of average/maximum allocation and execution/response times
  (per application or combined),
* the system-wide utilization step function,
* the cumulative malleability-manager activity,
* and, when a fault model was configured, the resilience block: job kills,
  resubmissions, shrink-rescues, wasted work, the availability step function
  and availability-normalised utilization.  With faults disabled the block
  is entirely absent, so fault support is provably zero-drift for every
  existing metric consumer (golden snapshots, bench digests, the cache).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.runtime import ExecutionRecord
from repro.cluster.multicluster import Multicluster
from repro.koala.job import Job, JobKind
from repro.koala.scheduler import KoalaScheduler
from repro.metrics.cdf import EmpiricalCDF


@dataclass(frozen=True)
class JobMetrics:
    """Per-job quantities used by the evaluation figures."""

    name: str
    profile: str
    kind: str
    submit_time: float
    start_time: float
    finish_time: float
    average_allocation: float
    maximum_allocation: int
    grow_count: int
    shrink_count: int

    @property
    def execution_time(self) -> float:
        """Wall-clock execution time (start to finish)."""
        return self.finish_time - self.start_time

    @property
    def response_time(self) -> float:
        """Wall-clock response time (submit to finish)."""
        return self.finish_time - self.submit_time

    @property
    def wait_time(self) -> float:
        """Time spent waiting in the placement queue."""
        return self.start_time - self.submit_time

    @classmethod
    def from_record(cls, job: Job, record: ExecutionRecord) -> "JobMetrics":
        """Join a job description with its execution record."""
        return cls(
            name=job.name,
            profile=job.profile.name,
            kind=job.kind.value,
            submit_time=float(record.submit_time if record.submit_time is not None else 0.0),
            start_time=float(record.start_time if record.start_time is not None else 0.0),
            finish_time=float(record.finish_time if record.finish_time is not None else 0.0),
            average_allocation=record.average_allocation,
            maximum_allocation=record.maximum_allocation,
            grow_count=record.grow_count,
            shrink_count=record.shrink_count,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (native Python scalars only)."""
        return {
            "name": str(self.name),
            "profile": str(self.profile),
            "kind": str(self.kind),
            "submit_time": float(self.submit_time),
            "start_time": float(self.start_time),
            "finish_time": float(self.finish_time),
            "average_allocation": float(self.average_allocation),
            "maximum_allocation": int(self.maximum_allocation),
            "grow_count": int(self.grow_count),
            "shrink_count": int(self.shrink_count),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobMetrics":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            profile=data["profile"],
            kind=data["kind"],
            submit_time=float(data["submit_time"]),
            start_time=float(data["start_time"]),
            finish_time=float(data["finish_time"]),
            average_allocation=float(data["average_allocation"]),
            maximum_allocation=int(data["maximum_allocation"]),
            grow_count=int(data["grow_count"]),
            shrink_count=int(data["shrink_count"]),
        )


def _step_integral(times, values, *, end: float) -> float:
    """Integral of a right-continuous step function over ``[0, end]``."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) == 0 or end <= times[0]:
        return 0.0
    inside = times < end
    times = np.append(times[inside], end)
    return float(np.sum(values[: len(times) - 1] * np.diff(times)))


class ExperimentMetrics:
    """All metrics of one finished experiment run."""

    def __init__(
        self,
        jobs: List[JobMetrics],
        *,
        utilization: Tuple[np.ndarray, np.ndarray],
        grow_activity: Tuple[np.ndarray, np.ndarray],
        shrink_activity: Tuple[np.ndarray, np.ndarray],
        unfinished_jobs: int = 0,
        label: str = "",
        resilience: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.jobs = list(jobs)
        self.utilization = utilization
        self.grow_activity = grow_activity
        self.shrink_activity = shrink_activity
        self.unfinished_jobs = int(unfinished_jobs)
        self.label = label
        #: Resilience block of a fault-injected run (``None`` without faults):
        #: scalar counters plus the ``"availability"`` step function, kept in
        #: JSON-compatible form so it round-trips byte-identically through
        #: the cache and worker subprocesses.
        self.resilience = resilience
        # Lazily built column arrays over the job records (see ``_columns``).
        self._columns_cache: Optional[Dict[str, np.ndarray]] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_run(
        cls,
        scheduler: KoalaScheduler,
        multicluster: Multicluster,
        *,
        label: str = "",
        faults=None,
    ) -> "ExperimentMetrics":
        """Collect metrics from a finished (or stopped) scheduler run.

        *faults* is the run's :class:`~repro.faults.injector.FaultInjector`
        when fault injection was enabled; its counters become the resilience
        block, together with the availability step function and the
        availability-normalised utilization.
        """
        jobs = [
            JobMetrics.from_record(job, scheduler.records[job.job_id])
            for job in scheduler.finished
        ]
        manager = scheduler.manager
        if manager is not None:
            grow_activity = manager.grow_messages.cumulative()
            shrink_activity = manager.shrink_messages.cumulative()
        else:
            empty = (np.asarray([]), np.asarray([]))
            grow_activity, shrink_activity = empty, empty
        unfinished = (
            len(scheduler.running_jobs()) + scheduler.queue_length + len(scheduler.failed)
        )
        utilization = multicluster.utilization_series("grid")
        resilience: Optional[Dict[str, Any]] = None
        if faults is not None:
            availability = multicluster.availability_series()
            end = float(multicluster.env.now)
            used = _step_integral(*utilization, end=end)
            available = _step_integral(*availability, end=end)
            resilience = dict(faults.resilience_summary())
            resilience["availability"] = cls._series_to_dict(availability)
            # Utilization normalised by what was actually *up*: the fair
            # utilization figure of a run whose machine kept changing size.
            resilience["availability_normalized_utilization"] = float(
                used / available if available > 0 else 0.0
            )
        return cls(
            jobs,
            utilization=utilization,
            grow_activity=grow_activity,
            shrink_activity=shrink_activity,
            unfinished_jobs=unfinished,
            label=label,
            resilience=resilience,
        )

    # -- serialisation -----------------------------------------------------------

    @staticmethod
    def _series_to_dict(series: Tuple[np.ndarray, np.ndarray]) -> Dict[str, List[float]]:
        times, values = series
        return {
            "times": [float(t) for t in np.asarray(times).ravel()],
            "values": [float(v) for v in np.asarray(values).ravel()],
        }

    @staticmethod
    def _series_from_dict(data: Dict[str, List[float]]) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(data["times"], dtype=float),
            np.asarray(data["values"], dtype=float),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation of the full metrics object.

        The output contains only native Python scalars and lists, so
        ``json.dumps(metrics.to_dict(), sort_keys=True)`` is deterministic:
        two runs of the same configuration produce byte-identical dumps
        whether they ran in-process, in a worker subprocess, or were loaded
        back from the result cache.
        """
        data = {
            "label": str(self.label),
            "unfinished_jobs": int(self.unfinished_jobs),
            "jobs": [job.to_dict() for job in self.jobs],
            "utilization": self._series_to_dict(self.utilization),
            "grow_activity": self._series_to_dict(self.grow_activity),
            "shrink_activity": self._series_to_dict(self.shrink_activity),
        }
        if self.resilience is not None:
            # Present only for fault-injected runs: with faults disabled the
            # representation stays byte-identical to what it always was.
            data["resilience"] = self.resilience
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentMetrics":
        """Inverse of :meth:`to_dict` (round-trips exactly)."""
        return cls(
            [JobMetrics.from_dict(job) for job in data["jobs"]],
            utilization=cls._series_from_dict(data["utilization"]),
            grow_activity=cls._series_from_dict(data["grow_activity"]),
            shrink_activity=cls._series_from_dict(data["shrink_activity"]),
            unfinished_jobs=int(data["unfinished_jobs"]),
            label=data["label"],
            resilience=data.get("resilience"),
        )

    # -- vectorised accumulation ---------------------------------------------------

    def _columns(self) -> Dict[str, np.ndarray]:
        """Per-job quantities accumulated into numpy columns, built once.

        All whole-population statistics (the summary and the no-selection CDFs)
        read these arrays instead of re-walking the job records, so metrics
        post-processing stays a small fraction of large runs.  The cache is
        invalidated if the job list changes length.
        """
        cache = self._columns_cache
        jobs = self.jobs
        if cache is None or len(cache["submit_time"]) != len(jobs):
            n = len(jobs)
            submit = np.fromiter((j.submit_time for j in jobs), dtype=float, count=n)
            start = np.fromiter((j.start_time for j in jobs), dtype=float, count=n)
            finish = np.fromiter((j.finish_time for j in jobs), dtype=float, count=n)
            cache = {
                "submit_time": submit,
                "start_time": start,
                "finish_time": finish,
                "execution_time": finish - start,
                "response_time": finish - submit,
                "wait_time": start - submit,
                "average_allocation": np.fromiter(
                    (j.average_allocation for j in jobs), dtype=float, count=n
                ),
                "maximum_allocation": np.fromiter(
                    (j.maximum_allocation for j in jobs), dtype=float, count=n
                ),
            }
            self._columns_cache = cache
        return cache

    # -- selection ---------------------------------------------------------------

    def select(
        self, *, profile: Optional[str] = None, kind: Optional[str] = None
    ) -> List[JobMetrics]:
        """Jobs filtered by application profile and/or job kind."""
        result = self.jobs
        if profile is not None:
            result = [job for job in result if job.profile == profile]
        if kind is not None:
            result = [job for job in result if job.kind == kind]
        return list(result)

    @property
    def job_count(self) -> int:
        """Number of finished jobs included in the metrics."""
        return len(self.jobs)

    @property
    def malleable_jobs(self) -> List[JobMetrics]:
        """The finished malleable jobs."""
        return self.select(kind=JobKind.MALLEABLE.value)

    # -- figure data ----------------------------------------------------------------

    def _cdf(self, column: str, selection: Dict[str, Any]) -> EmpiricalCDF:
        """CDF of one per-job quantity; whole-population reads use the columns."""
        if not selection:
            return EmpiricalCDF.from_values(self._columns()[column])
        return EmpiricalCDF.from_values(
            getattr(job, column) for job in self.select(**selection)
        )

    def average_allocation_cdf(self, **selection) -> EmpiricalCDF:
        """CDF of the per-job time-averaged processor count (Figures 7(a)/8(a))."""
        return self._cdf("average_allocation", selection)

    def maximum_allocation_cdf(self, **selection) -> EmpiricalCDF:
        """CDF of the per-job maximum processor count (Figures 7(b)/8(b))."""
        return self._cdf("maximum_allocation", selection)

    def execution_time_cdf(self, **selection) -> EmpiricalCDF:
        """CDF of job execution times (Figures 7(c)/8(c))."""
        return self._cdf("execution_time", selection)

    def response_time_cdf(self, **selection) -> EmpiricalCDF:
        """CDF of job response times (Figures 7(d)/8(d))."""
        return self._cdf("response_time", selection)

    def utilization_over(self, start: float, end: float, samples: int = 200) -> Tuple[np.ndarray, np.ndarray]:
        """Utilization sampled over ``[start, end]`` (Figures 7(e)/8(e))."""
        if end <= start:
            raise ValueError("end must be greater than start")
        times, values = self.utilization
        if len(times) == 0:
            xs = np.linspace(start, end, samples)
            return xs, np.zeros_like(xs)
        xs = np.linspace(start, end, samples)
        indices = np.searchsorted(times, xs, side="right") - 1
        ys = np.where(indices >= 0, values[np.clip(indices, 0, len(values) - 1)], 0.0)
        return xs, ys

    def mean_utilization(self, start: float, end: float) -> float:
        """Time-averaged number of busy processors over ``[start, end]``."""
        xs, ys = self.utilization_over(start, end, samples=2000)
        return float(np.mean(ys))

    def peak_utilization(self) -> float:
        """Largest number of processors used simultaneously by grid jobs."""
        _, values = self.utilization
        return float(values.max()) if len(values) else 0.0

    def cumulative_grow_messages(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative grow messages over time (Figure 7(f))."""
        return self.grow_activity

    def cumulative_operations(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative malleability operations (grow + shrink) over time (Figure 8(f))."""
        g_times, g_counts = self.grow_activity
        s_times, s_counts = self.shrink_activity
        if len(g_times) == 0 and len(s_times) == 0:
            return np.asarray([]), np.asarray([])
        # Vectorised merge: a stable sort keeps simultaneous grow/shrink
        # events in the same (grow-first) order the list-based merge used.
        times = np.sort(
            np.concatenate([np.asarray(g_times, dtype=float), np.asarray(s_times, dtype=float)]),
            kind="stable",
        )
        counts = np.arange(1, len(times) + 1, dtype=float)
        return times, counts

    @property
    def total_grow_messages(self) -> int:
        """Total number of grow messages sent during the run."""
        _, counts = self.grow_activity
        return int(counts[-1]) if len(counts) else 0

    @property
    def total_shrink_messages(self) -> int:
        """Total number of shrink messages sent during the run."""
        _, counts = self.shrink_activity
        return int(counts[-1]) if len(counts) else 0

    # -- summary -------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Headline statistics of the run (used by reports and benchmarks).

        For fault-injected runs the resilience scalars (job kills,
        resubmissions, shrink-rescues, wasted work, availability-normalised
        utilization, ...) join the summary; without a fault model the key set
        is exactly the historical one.
        """
        if not self.jobs:
            result = {
                "jobs": 0,
                "unfinished": float(self.unfinished_jobs),
                "mean_execution_time": float("nan"),
                "mean_response_time": float("nan"),
                "mean_average_allocation": float("nan"),
                "mean_maximum_allocation": float("nan"),
                "grow_messages": float(self.total_grow_messages),
                "shrink_messages": float(self.total_shrink_messages),
                "peak_utilization": self.peak_utilization(),
            }
        else:
            columns = self._columns()
            result = {
                "jobs": float(len(self.jobs)),
                "unfinished": float(self.unfinished_jobs),
                "mean_execution_time": float(np.mean(columns["execution_time"])),
                "mean_response_time": float(np.mean(columns["response_time"])),
                "median_execution_time": float(np.median(columns["execution_time"])),
                "median_response_time": float(np.median(columns["response_time"])),
                "mean_average_allocation": float(np.mean(columns["average_allocation"])),
                "mean_maximum_allocation": float(np.mean(columns["maximum_allocation"])),
                "grow_messages": float(self.total_grow_messages),
                "shrink_messages": float(self.total_shrink_messages),
                "peak_utilization": self.peak_utilization(),
            }
        if self.resilience is not None:
            for key, value in self.resilience.items():
                if isinstance(value, (int, float)):
                    result[key] = float(value)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ExperimentMetrics {self.label!r}: {len(self.jobs)} jobs>"


def run_digest(metrics: Dict[str, Any]) -> str:
    """The per-run metrics digest: SHA-256 over canonical JSON.

    *metrics* is an :meth:`ExperimentMetrics.to_dict` mapping, fresh or read
    back from a result record.  Two runs digest identically exactly when
    they simulated the same outcomes; the trace's ``run_end`` record and the
    service protocol both carry this value.
    """
    return hashlib.sha256(json.dumps(metrics, sort_keys=True).encode("utf-8")).hexdigest()
