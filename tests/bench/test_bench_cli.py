"""End-to-end tests of the ``repro-bench`` command line.

These run the real simulator on a tiny pinned workload (a few jobs per
configuration), so every CLI path — record writing, bootstrap, the
regression gate and baseline updates — is exercised against genuine
measurements.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.cli import main

TINY = ["figure7", "--job-count", "3", "--seed", "0"]


@pytest.fixture()
def bench_dirs(tmp_path, monkeypatch):
    """Isolated output/baseline directories, with the cwd kept clean."""
    monkeypatch.chdir(tmp_path)
    output = tmp_path / "out"
    baselines = tmp_path / "baselines"
    return output, baselines


def run_cli(output, baselines, *extra: str) -> int:
    return main(
        TINY + ["--output-dir", str(output), "--baseline-dir", str(baselines)]
        + list(extra)
    )


def test_bench_writes_record_with_events_and_wall_clock(bench_dirs, capsys):
    output, baselines = bench_dirs
    assert run_cli(output, baselines) == 0
    record = json.loads((output / "BENCH_figure7.json").read_text())
    assert record["scenario"] == "figure7"
    assert record["runs"] == 4
    assert record["wall_clock_seconds"] > 0
    assert record["events_processed"] > 0
    assert record["events_per_second"] > 0
    assert record["metrics_digest"]
    assert "figure7" in capsys.readouterr().out


def test_check_bootstraps_then_passes(bench_dirs, capsys):
    output, baselines = bench_dirs
    assert run_cli(output, baselines, "--check") == 0
    assert "bootstrapped" in capsys.readouterr().out
    assert (baselines / "BENCH_figure7.json").is_file()
    # A second, identical-workload run gates against the bootstrapped
    # baseline without failing (generous threshold: CI machines are noisy).
    assert run_cli(output, baselines, "--check", "--threshold", "400%") == 0


def test_check_fails_on_injected_slowdown(bench_dirs, capsys):
    output, baselines = bench_dirs
    assert run_cli(output, baselines, "--check") == 0  # bootstrap
    baseline_path = baselines / "BENCH_figure7.json"
    baseline = json.loads(baseline_path.read_text())
    # Pretend the committed baseline was 10x faster: the fresh measurement is
    # now an (injected) ≥15% slowdown and the gate must fail.
    baseline["wall_clock_seconds"] /= 10.0
    baseline_path.write_text(json.dumps(baseline))
    assert run_cli(output, baselines, "--check", "--threshold", "15%") == 1
    assert "regression" in capsys.readouterr().out


def test_check_fails_on_a_changed_digest(bench_dirs, capsys):
    output, baselines = bench_dirs
    assert run_cli(output, baselines, "--check") == 0  # bootstrap
    baseline_path = baselines / "BENCH_figure7.json"
    baseline = json.loads(baseline_path.read_text())
    # Same workload, different simulated outcomes: fails even with a
    # threshold no timing could cross.
    baseline["metrics_digest"] = "0" * 64
    baseline_path.write_text(json.dumps(baseline))
    assert run_cli(output, baselines, "--check", "--threshold", "400%") == 1
    captured = capsys.readouterr()
    assert "digest changed" in captured.out
    assert "--update" in captured.out
    assert "FAILED" in captured.err


def test_check_reports_improvement_without_failing(bench_dirs, capsys):
    output, baselines = bench_dirs
    assert run_cli(output, baselines, "--check") == 0  # bootstrap
    baseline_path = baselines / "BENCH_figure7.json"
    baseline = json.loads(baseline_path.read_text())
    baseline["wall_clock_seconds"] *= 1000.0
    baseline_path.write_text(json.dumps(baseline))
    assert run_cli(output, baselines, "--check") == 0
    assert "improvement" in capsys.readouterr().out


def test_update_writes_new_baseline(bench_dirs):
    output, baselines = bench_dirs
    assert run_cli(output, baselines, "--update") == 0
    record = json.loads((baselines / "BENCH_figure7.json").read_text())
    assert record["job_count"] == 3


def test_update_refuses_cache_hit_records(bench_dirs, tmp_path, capsys):
    output, baselines = bench_dirs
    cache = tmp_path / "cache"
    # Warm the cache, then re-run against it: all runs become cache hits and
    # must not be accepted as a timing baseline.
    assert run_cli(output, baselines, "--cache-dir", str(cache)) == 0
    assert run_cli(output, baselines, "--cache-dir", str(cache), "--update") == 1
    assert not (baselines / "BENCH_figure7.json").exists()
    assert "NOT updated" in capsys.readouterr().err


def test_list_names_benchable_scenarios(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "figure7" in out and "figure8" in out
    assert "table1" not in out  # static scenarios cannot be benchmarked


def test_bad_threshold_is_a_usage_error(bench_dirs):
    output, baselines = bench_dirs
    with pytest.raises(SystemExit):
        run_cli(output, baselines, "--check", "--threshold", "-3%")
