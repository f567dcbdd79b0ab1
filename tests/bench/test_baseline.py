"""Unit tests of benchmark baseline storage and the exact gate."""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

from repro.bench import BenchRecord, benchable_scenarios, check_record, save_baseline
from repro.bench.runner import BENCH_FORMAT

#: The committed baselines, gated by CI's ``bench`` job.
COMMITTED = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def record(**overrides) -> BenchRecord:
    fields = dict(
        scenario="figure7",
        job_count=40,
        seed=0,
        runs=4,
        events_processed=16_163,
        metrics_digest="digest-1",
    )
    fields.update(overrides)
    return BenchRecord(**fields)


def test_identical_record_passes(tmp_path):
    save_baseline(tmp_path, record())
    assert check_record(record(), tmp_path) == []


def test_changed_digest_fails_the_gate(tmp_path):
    save_baseline(tmp_path, record())
    assert check_record(record(metrics_digest="digest-2"), tmp_path) == [
        "metrics_digest: baseline digest-1, measured digest-2"
    ]


def test_changed_event_count_alone_fails_the_gate(tmp_path):
    """Same digest, more kernel events: the same outcome cost more work."""
    save_baseline(tmp_path, record())
    assert check_record(record(events_processed=16_164), tmp_path) == [
        "events_processed: baseline 16163, measured 16164"
    ]


def test_different_job_count_fails_the_gate(tmp_path):
    save_baseline(tmp_path, record())
    failures = check_record(
        record(job_count=300, events_processed=99, metrics_digest="digest-300"),
        tmp_path,
    )
    assert failures == [
        "events_processed: baseline 16163, measured 99",
        "job_count: baseline 40, measured 300",
        "metrics_digest: baseline digest-1, measured digest-300",
    ]


def test_different_seed_fails_the_gate(tmp_path):
    save_baseline(tmp_path, record())
    assert check_record(record(seed=1), tmp_path) == ["seed: baseline 0, measured 1"]


def test_missing_baseline_fails_and_writes_nothing(tmp_path):
    failures = check_record(record(), tmp_path)
    assert failures == [f"no baseline at {tmp_path / 'BENCH_figure7.json'}"]
    assert list(tmp_path.iterdir()) == []


def test_baseline_round_trips_through_json(tmp_path):
    path = save_baseline(tmp_path / "new", record())
    assert path == tmp_path / "new" / "BENCH_figure7.json"
    assert json.loads(path.read_text(encoding="utf-8")) == asdict(record())


def test_stale_baseline_field_fails_the_gate(tmp_path):
    """A baseline from before the gate was exact carries fields records no
    longer have (``"queue": "calendar"``, wall-clock seconds); it fails until
    ``--update`` rewrites it, instead of passing on the fields both share."""
    stale = json.loads(save_baseline(tmp_path, record()).read_text())
    stale["queue"] = "calendar"
    stale["wall_clock_seconds"] = 0.129
    (tmp_path / "BENCH_figure7.json").write_text(json.dumps(stale), encoding="utf-8")
    assert check_record(record(), tmp_path) == [
        "queue: baseline calendar, measured None",
        "wall_clock_seconds: baseline 0.129, measured None",
    ]


def test_baseline_missing_a_field_fails_the_gate(tmp_path):
    """A hand-edited or truncated baseline cannot pass on the fields it kept."""
    truncated = json.loads(save_baseline(tmp_path, record()).read_text())
    del truncated["events_processed"]
    (tmp_path / "BENCH_figure7.json").write_text(json.dumps(truncated), encoding="utf-8")
    assert check_record(record(), tmp_path) == [
        "events_processed: baseline None, measured 16163"
    ]


def test_saving_again_replaces_the_baseline(tmp_path):
    save_baseline(tmp_path, record())
    save_baseline(tmp_path, record(events_processed=16_000, metrics_digest="digest-2"))
    replacement = record(events_processed=16_000, metrics_digest="digest-2")
    assert check_record(replacement, tmp_path) == []
    assert len(check_record(record(), tmp_path)) == 2


def test_committed_baselines_hold_exactly_the_record_fields():
    """Every committed baseline names a benchable scenario in its file name
    and holds the current record fields at the size CI gates it at —
    shard-replay too, which no test runs at its full 500,000 jobs."""
    committed = {
        path.stem[len("BENCH_"):]: json.loads(path.read_text(encoding="utf-8"))
        for path in COMMITTED.glob("BENCH_*.json")
    }
    assert set(committed) == {
        "figure7", "trace-replay", "fault-sweep", "churn-replay", "shard-replay"
    }
    for scenario, baseline in committed.items():
        assert set(baseline) == {field.name for field in fields(BenchRecord)}
        assert baseline["scenario"] == scenario and scenario in benchable_scenarios()
        assert baseline["format"] == BENCH_FORMAT and baseline["seed"] == 0
        assert baseline["job_count"] == (500_000 if scenario == "shard-replay" else 40)
