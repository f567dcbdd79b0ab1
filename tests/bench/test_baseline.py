"""Unit tests of benchmark baseline storage, diffing and gating."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchRecord,
    check_record,
    compare_records,
    load_baseline,
    parse_threshold,
    save_baseline,
)
from repro.bench.baseline import (
    STATUS_BOOTSTRAPPED,
    STATUS_DIGEST_CHANGED,
    STATUS_IMPROVEMENT,
    STATUS_OK,
    STATUS_REGRESSION,
)


def record(wall: float = 1.0, **overrides) -> BenchRecord:
    fields = dict(
        scenario="figure7",
        job_count=40,
        seed=0,
        runs=4,
        wall_clock_seconds=wall,
        events_processed=20_000,
        events_per_second=20_000 / wall,
        peak_rss_bytes=40_000_000,
        cache_hits=0,
        code_version="abc",
        metrics_digest="digest-1",
        host="Linux-x86_64",
        python_version="3.12.0",
    )
    fields.update(overrides)
    return BenchRecord(**fields)


# ---------------------------------------------------------------------------
# Threshold parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [("15%", 0.15), ("0.15", 0.15), ("7.5%", 0.075), (0.2, 0.2), ("400%", 4.0)],
)
def test_parse_threshold_accepts_percent_and_fraction(text, expected):
    assert parse_threshold(text) == pytest.approx(expected)


@pytest.mark.parametrize("text", ["0", "-5%", "nope", "15", "1.5"])
def test_parse_threshold_rejects_nonsense_and_ambiguity(text):
    with pytest.raises(ValueError):
        parse_threshold(text)


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


def test_regression_detected_past_threshold():
    comparison = compare_records(record(wall=1.3), record(wall=1.0), threshold=0.15)
    assert comparison.status == STATUS_REGRESSION
    assert comparison.failed
    assert comparison.delta == pytest.approx(0.3)
    assert "30.0% slower" in comparison.describe()


def test_improvement_auto_reported_past_threshold():
    comparison = compare_records(record(wall=0.7), record(wall=1.0), threshold=0.15)
    assert comparison.status == STATUS_IMPROVEMENT
    assert not comparison.failed
    assert "faster" in comparison.describe()


def test_within_threshold_is_ok_both_ways():
    for wall in (0.9, 1.1):
        comparison = compare_records(record(wall=wall), record(wall=1.0), threshold=0.15)
        assert comparison.status == STATUS_OK
        assert not comparison.failed


def test_changed_digest_fails_the_gate():
    comparison = compare_records(
        record(wall=1.0, metrics_digest="digest-2"), record(wall=1.0)
    )
    assert comparison.status == STATUS_DIGEST_CHANGED
    assert comparison.failed
    assert "--update" in comparison.describe()


def test_changed_digest_fails_the_gate_on_another_host_too():
    """Wall-clock does not compare across machines; the digest does."""
    comparison = compare_records(
        record(wall=0.5, metrics_digest="digest-2", host="Darwin-arm64"),
        record(wall=1.0),
    )
    assert comparison.status == STATUS_DIGEST_CHANGED
    assert comparison.failed


def test_equal_digest_within_threshold_passes():
    comparison = compare_records(record(wall=1.05), record(wall=1.0), threshold=0.15)
    assert comparison.status == STATUS_OK
    assert not comparison.failed
    assert not any("digest" in note for note in comparison.notes)


def test_workload_mismatch_is_never_gated():
    comparison = compare_records(
        record(wall=10.0, job_count=300), record(wall=1.0), threshold=0.15
    )
    assert comparison.status == STATUS_OK
    assert any("workload mismatch" in note for note in comparison.notes)


def test_different_job_count_is_not_gated_on_its_digest():
    comparison = compare_records(
        record(wall=1.0, job_count=300, metrics_digest="digest-300"), record(wall=1.0)
    )
    assert comparison.status == STATUS_OK
    assert not comparison.failed


def test_host_mismatch_is_never_gated():
    comparison = compare_records(
        record(wall=10.0, host="Darwin-arm64"), record(wall=1.0), threshold=0.15
    )
    assert comparison.status == STATUS_OK
    assert any("host mismatch" in note for note in comparison.notes)


def test_python_feature_release_mismatch_is_never_gated():
    comparison = compare_records(
        record(wall=10.0, python_version="3.9.18"), record(wall=1.0), threshold=0.15
    )
    assert comparison.status == STATUS_OK
    assert any("host mismatch" in note for note in comparison.notes)


def test_python_micro_release_difference_still_gates():
    comparison = compare_records(
        record(wall=1.3, python_version="3.12.7"), record(wall=1.0), threshold=0.15
    )
    assert comparison.status == STATUS_REGRESSION


def test_cache_hits_are_called_out():
    comparison = compare_records(record(wall=0.01, cache_hits=4), record(wall=1.0))
    assert any("cache" in note for note in comparison.notes)


# ---------------------------------------------------------------------------
# Gating against a baseline directory
# ---------------------------------------------------------------------------


def test_missing_baseline_bootstraps_cleanly(tmp_path):
    current = record(wall=1.0)
    comparison = check_record(current, directory=tmp_path)
    assert comparison.status == STATUS_BOOTSTRAPPED
    assert not comparison.failed
    # The record itself became the committed baseline...
    stored = load_baseline(tmp_path, "figure7")
    assert stored is not None
    assert stored.wall_clock_seconds == current.wall_clock_seconds
    # ...so an identical second run gates cleanly against it.
    assert check_record(record(wall=1.0), directory=tmp_path).status == STATUS_OK


def test_cache_hit_records_never_become_baselines(tmp_path):
    comparison = check_record(record(cache_hits=2), directory=tmp_path)
    assert comparison.status == STATUS_BOOTSTRAPPED
    assert load_baseline(tmp_path, "figure7") is None


def test_check_record_detects_regression_against_saved_baseline(tmp_path):
    save_baseline(tmp_path, record(wall=1.0))
    comparison = check_record(record(wall=1.2), directory=tmp_path, threshold=0.15)
    assert comparison.status == STATUS_REGRESSION
    assert comparison.failed


def test_baseline_round_trips_through_json(tmp_path):
    original = record(wall=1.234)
    save_baseline(tmp_path, original)
    loaded = load_baseline(tmp_path, "figure7")
    assert loaded == original


def test_calendar_era_baseline_still_gates_a_record_without_the_queue_field(tmp_path):
    """The committed baselines carry ``"queue": "calendar"`` from before the
    kernel went heap-only; records no longer name a queue, and the gate must
    still compare them instead of waving every slowdown through."""
    baseline = record(wall=1.0).to_dict()
    baseline["queue"] = "calendar"
    (tmp_path / "BENCH_figure7.json").write_text(json.dumps(baseline), encoding="utf-8")
    current = record(wall=1.3)
    assert "queue" not in current.to_dict()
    comparison = check_record(current, directory=tmp_path, threshold=0.15)
    assert comparison.status == STATUS_REGRESSION
    assert comparison.failed
