"""Unit tests of the counted benchmark runs (``repro.bench.runner``)."""

from __future__ import annotations

import pytest

from repro.bench import BenchRecord, run_bench
from repro.bench.cli import DEFAULT_SCENARIOS
from repro.bench.runner import metrics_digest, records_report
from repro.experiments import engine
from repro.experiments.engine import ResultCache
from repro.experiments.scenarios import run_scenario


@pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS)
def test_record_equals_a_cache_replayed_run_scenario(tmp_path, monkeypatch, scenario):
    """The record holds what the scenario simulated, not how it was run:
    a run served entirely from the result cache sums to the same events and
    digest as the serial, uncached bench run."""
    record, _seconds = run_bench(scenario, job_count=3, seed=0)
    cache = ResultCache(tmp_path / "cache")
    run_scenario(scenario, job_count=3, seed=0, cache=cache)

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("run_experiment called on the warm cache path")

    monkeypatch.setattr(engine, "run_experiment", explode)
    replayed = run_scenario(scenario, job_count=3, seed=0, cache=cache)
    assert record.runs == len(replayed)
    assert record.events_processed == sum(
        result.events_processed for result in replayed.values()
    )
    assert record.metrics_digest == metrics_digest(replayed)


def test_run_bench_refuses_a_static_scenario():
    with pytest.raises(ValueError, match="static"):
        run_bench("table1", job_count=3)


def test_run_bench_refuses_an_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario 'figure99'"):
        run_bench("figure99", job_count=3)


def test_records_report_lists_each_record_in_order():
    records = [
        (BenchRecord("figure7", 40, 0, 4, 16_163, "d1"), 0.1234),
        (BenchRecord("shard-replay", 500_000, 0, 1, 7_001_646, "d2"), 61.0),
    ]
    header, first, second = records_report(records).splitlines()
    assert header.split() == ["scenario", "runs", "jobs", "events", "wall", "(s)"]
    assert first.split() == ["figure7", "4", "40", "16163", "0.123"]
    assert second.split() == ["shard-replay", "1", "500000", "7001646", "61.000"]
