"""Tests of the sweep engine: parallel fan-out, result cache, determinism."""

from __future__ import annotations

import json

import pytest

import repro.experiments.engine as engine
from repro.experiments.engine import (
    ResultCache,
    code_version,
    config_key,
    record_to_result,
    result_to_record,
    run_configs,
)
from repro.experiments.scenarios import run_scenario
from repro.experiments.setup import ExperimentConfig, run_experiment


def config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        name="engine-test", workload="Wm", job_count=6, malleability_policy="EGS", seed=7
    )
    return base.with_overrides(**overrides) if overrides else base


def dump(metrics) -> str:
    return json.dumps(metrics.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Keys and records
# ---------------------------------------------------------------------------


def test_code_version_is_stable_within_a_process():
    assert code_version() == code_version()
    assert len(code_version()) == 64


def test_config_key_changes_with_any_config_field():
    base = config_key(config())
    assert config_key(config()) == base
    assert config_key(config(seed=8)) != base
    assert config_key(config(job_count=7)) != base
    assert config_key(config(malleability_policy="FPSMA")) != base


def test_result_record_round_trips_through_json():
    result = run_experiment(config())
    record = json.loads(json.dumps(result_to_record(result)))
    restored = record_to_result(record)
    assert restored.config == result.config
    assert restored.all_done == result.all_done
    assert restored.simulated_time == result.simulated_time
    assert restored.workload is None
    assert restored.workload_duration == result.workload_duration
    assert restored.events_processed == result.events_processed > 0
    assert dump(restored.metrics) == dump(result.metrics)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.load(config()) is None
    result = run_experiment(config())
    path = cache.store(result)
    assert path.is_file()
    cached = cache.load(config())
    assert cached is not None
    assert dump(cached.metrics) == dump(result.metrics)
    assert cache.load(config(seed=99)) is None  # other configs still miss


def test_corrupt_cache_file_counts_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(run_experiment(config()))
    cache.path_for(config()).write_text("{not json", encoding="utf-8")
    assert cache.load(config()) is None


def test_warm_cache_path_never_calls_run_experiment(tmp_path, monkeypatch):
    """The acceptance check: a second sweep must be served from disk only."""
    cache = ResultCache(tmp_path)
    configs = [config(seed=s) for s in (1, 2)]
    cold = run_configs(configs, cache=cache)

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("run_experiment called on the warm cache path")

    monkeypatch.setattr(engine, "run_experiment", explode)
    warm = run_configs(configs, cache=cache)
    for before, after in zip(cold, warm):
        assert dump(before.metrics) == dump(after.metrics)


def test_refresh_ignores_cached_entries(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    run_configs([config()], cache=cache)
    calls = []
    real = engine.run_experiment
    monkeypatch.setattr(
        engine, "run_experiment", lambda c, **kw: calls.append(c) or real(c, **kw)
    )
    run_configs([config()], cache=cache, refresh=True)
    assert len(calls) == 1


def test_cache_clear_removes_every_entry(tmp_path):
    cache = ResultCache(tmp_path)
    run_configs([config(seed=s) for s in (1, 2, 3)], cache=cache)
    assert cache.clear() == 3
    assert cache.load(config(seed=1)) is None


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------


def test_run_configs_preserves_order_and_rejects_bad_jobs():
    configs = [config(seed=s) for s in (3, 1, 2)]
    results = run_configs(configs)
    assert [r.config.seed for r in results] == [3, 1, 2]
    with pytest.raises(ValueError):
        run_configs(configs, jobs=0)


def test_a_serial_sweep_builds_each_distinct_workload_once(monkeypatch):
    import repro.experiments.setup as setup

    built = []
    real = setup.build_named_workload

    def counted(name, *args, **kwargs):
        built.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(setup, "build_named_workload", counted)
    # figure7 runs FPSMA and EGS over Wm and Wmr: four runs, two workloads.
    results = run_scenario("figure7", job_count=20, jobs=1, cache=None)
    assert len(results) == 4
    assert sorted(built) == ["Wm", "Wmr"]


def test_parallel_metrics_are_byte_identical_to_serial(tmp_path):
    """Same config + seed => byte-identical ``to_dict()`` dumps, serial or
    ``jobs=4``, cold or warm.  The paper's comparisons rely on exact replay."""
    serial = run_scenario("figure7", job_count=6, seed=4)
    parallel = run_scenario(
        "figure7", job_count=6, seed=4, jobs=4, cache=ResultCache(tmp_path)
    )
    assert list(serial) == list(parallel)  # same labels, same stable order
    for label in serial:
        assert dump(serial[label].metrics) == dump(parallel[label].metrics), label
        assert serial[label].simulated_time == parallel[label].simulated_time


def test_mixed_warm_and_cold_entries_merge_in_order(tmp_path):
    cache = ResultCache(tmp_path)
    first, third = config(seed=1), config(seed=3)
    run_configs([first, third], cache=cache)  # pre-warm seeds 1 and 3
    results = run_configs([config(seed=s) for s in (1, 2, 3)], jobs=2, cache=cache)
    assert [r.config.seed for r in results] == [1, 2, 3]
    assert cache.load(config(seed=2)) is not None  # the miss was stored too
