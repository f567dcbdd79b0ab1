"""Sweep engine: run many experiment configurations fast and only once.

The engine is the single execution path of the experiments layer.  Every
figure, table and ablation declares *what* to run (a
:class:`~repro.experiments.scenarios.ScenarioSpec`); this module decides
*how*: it fans the expanded configurations out over a
:class:`~concurrent.futures.ProcessPoolExecutor` (``jobs > 1``), consults an
on-disk result cache before paying for any simulation, and merges the
results back in the stable order the configurations were given in.

Caching
-------
A result is keyed by a SHA-256 hash of (a) the complete JSON representation
of its :class:`~repro.experiments.setup.ExperimentConfig` and (b) a *code
version* digest over every source file of the :mod:`repro` package.  Editing
any simulator source invalidates the whole cache; editing nothing makes a
re-run of an already-computed figure near-instant.  Only JSON travels
through the cache and across process boundaries, so cached, subprocess and
in-process results are exactly interchangeable (see
:meth:`repro.metrics.collector.ExperimentMetrics.to_dict`).
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import repro
from repro.experiments.setup import (
    ExperimentConfig,
    ExperimentResult,
    build_workload,
    run_experiment,
)
from repro.metrics.collector import ExperimentMetrics
from repro.sim.rng import RandomStreams
from repro.workloads.spec import WorkloadSpec

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file; changes whenever the code does.

    Memoised per process: the package sources do not change underneath a
    running sweep.
    """
    global _code_version_cache
    if _code_version_cache is None:
        digest = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def config_key(config: ExperimentConfig) -> str:
    """Content hash identifying one run: configuration plus code version."""
    payload = json.dumps(config.to_dict(), sort_keys=True, default=str)
    digest = hashlib.sha256()
    digest.update(payload.encode())
    digest.update(code_version().encode())
    return digest.hexdigest()


def result_to_record(result: ExperimentResult) -> Dict[str, Any]:
    """JSON-compatible record of one result (the cache/IPC wire format)."""
    return {
        "config": result.config.to_dict(),
        "metrics": result.metrics.to_dict(),
        "simulated_time": float(result.simulated_time),
        "all_done": bool(result.all_done),
        # Derived from all_done but spelled out so anyone reading a result
        # JSON sees immediately that the metrics are partial.
        "truncated": bool(result.truncated),
        "workload_duration": float(result.workload_duration),
        "events_processed": int(result.events_processed),
    }


def record_to_result(record: Dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_record` (the workload spec itself is not kept)."""
    return ExperimentResult(
        config=ExperimentConfig.from_dict(record["config"]),
        metrics=ExperimentMetrics.from_dict(record["metrics"]),
        workload=None,
        simulated_time=float(record["simulated_time"]),
        all_done=bool(record["all_done"]),
        workload_duration=float(record["workload_duration"]),
        # Absent in records written before the benchmark subsystem existed.
        events_processed=int(record.get("events_processed", 0)),
    )


class ResultCache:
    """On-disk cache of experiment results over the service's content store.

    A thin experiment-typed wrapper around
    :class:`repro.service.store.ResultStore`: this class maps configurations
    to content keys and results to wire records, the store provides the
    durable layer — atomic writes, cross-process file locking, a
    ``schema_version`` field with graceful invalidation (old or corrupt
    records are misses, never errors) and optional LRU size bounding.  The
    experiment daemon shares the same store class, so cached, daemon,
    serial and parallel results stay byte-identical.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        *,
        budget_bytes: Union[str, int, None] = None,
    ) -> None:
        from repro.service.store import ResultStore, default_cache_dir

        self.backend = ResultStore(
            Path(directory) if directory is not None else default_cache_dir(),
            budget_bytes=budget_bytes,
        )

    @property
    def directory(self) -> Path:
        """The store directory (for messages and tooling)."""
        return self.backend.directory

    def path_for(self, config: ExperimentConfig) -> Path:
        """The cache file a result for *config* lives in (existing or not)."""
        return self.backend.path_for(config_key(config))

    def load(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """The cached result for *config*, or ``None`` on a miss.

        Unreadable, truncated or schema-incompatible cache files count as
        misses: the cache is an accelerator, never a source of errors.
        """
        record = self.backend.get(config_key(config))
        if record is None:
            return None
        try:
            return record_to_result(record)
        except (KeyError, TypeError, ValueError):
            # A structurally valid envelope whose record does not round-trip
            # (e.g. hand-edited): same policy as corruption — a miss.
            return None

    def store(self, result: ExperimentResult) -> Path:
        """Persist *result* with its reply head; returns the cache file written.

        The head (:func:`repro.service.protocol.result_head`) is what lets
        the daemon answer a concise request for this result from the
        store's first line, without parsing or re-digesting the record.
        """
        from repro.service.protocol import result_head

        record = result_to_record(result)
        return self.backend.put(config_key(result.config), record, head=result_head(record))

    def clear(self) -> int:
        """Delete every cached result; returns the number of files removed."""
        return self.backend.clear()


def _execute_record(config_data: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one configuration, return its JSON record.

    Takes and returns plain dicts so nothing fancier than JSON-shaped data
    ever crosses the process boundary.
    """
    config = ExperimentConfig.from_dict(config_data)
    return result_to_record(run_experiment(config))


def run_configs(
    configs: Sequence[ExperimentConfig],
    *,
    jobs: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    refresh: bool = False,
) -> List[ExperimentResult]:
    """Run *configs*, in parallel and against the cache, in stable order.

    Parameters
    ----------
    configs:
        The configurations to run.  The returned list matches this order
        exactly, regardless of which runs were cached or which subprocess
        finished first.
    jobs:
        Number of worker processes.  ``1`` (the default) runs everything in
        this process and builds each distinct workload once; higher values
        fan the cache misses out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`.  Seeds live in the
        configurations themselves, so the schedule of workers cannot change
        any result.
    cache:
        A :class:`ResultCache`, a directory for one, or ``None`` to run
        without caching.
    refresh:
        Ignore cached entries (but still store fresh results).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    store = cache if isinstance(cache, ResultCache) or cache is None else ResultCache(cache)

    # Process-global engine counters (see ``repro.obs.metrics``): how many
    # configurations this process ran versus served from cache.  The store's
    # own registry counts file-level hits/misses per store instance.
    from repro.obs.metrics import get_registry

    registry = get_registry()
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    misses: List[int] = []
    for index, config in enumerate(configs):
        cached = store.load(config) if store is not None and not refresh else None
        if cached is not None:
            registry.counter("engine.cache.hits").inc()
            results[index] = cached
        else:
            registry.counter("engine.cache.misses").inc()
            misses.append(index)
    registry.counter("engine.configs").inc(len(configs))
    registry.counter("engine.runs.executed").inc(len(misses))

    if misses and jobs > 1:
        worker_count = min(jobs, len(misses))
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            records = pool.map(
                _execute_record, [configs[index].to_dict() for index in misses]
            )
            for index, record in zip(misses, records):
                results[index] = record_to_result(record)
    else:
        # Configurations that differ only in policy replay the same
        # workload: build each distinct one once.  This is exact, because
        # the "workload" stream feeds only the build and every stream is
        # derived from its name, not from the order in which runs draw.
        workloads: Dict[tuple, WorkloadSpec] = {}
        for index in misses:
            config = configs[index]
            key = (config.workload, config.job_count, config.seed)
            if key not in workloads:
                workloads[key] = build_workload(config, RandomStreams(seed=config.seed))
            results[index] = run_experiment(config, workload=workloads[key])

    if store is not None:
        for index in misses:
            store.store(results[index])
    return [result for result in results if result is not None]
