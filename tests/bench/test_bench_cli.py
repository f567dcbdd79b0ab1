"""End-to-end tests of the ``repro-bench`` command line.

These run the real simulator on a tiny pinned workload (a few jobs per
configuration), so every CLI path — the report, baseline updates and the
exact gate — is exercised against genuine runs.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.bench import benchable_scenarios
from repro.bench.cli import DEFAULT_SCENARIOS, _resolve_scenarios, main

TINY = ["figure7", "--job-count", "3", "--seed", "0"]

#: Every field ``--update`` writes, and nothing else.
RECORD_FIELDS = {
    "format",
    "scenario",
    "job_count",
    "seed",
    "runs",
    "events_processed",
    "metrics_digest",
}


@pytest.fixture()
def baselines(tmp_path, monkeypatch):
    """An isolated baseline directory, with the cwd kept clean."""
    monkeypatch.chdir(tmp_path)
    return tmp_path / "baselines"


def run_cli(baselines, *extra: str) -> int:
    return main(TINY + ["--baseline-dir", str(baselines)] + list(extra))


def test_bench_prints_the_table_and_writes_no_file(baselines, tmp_path, capsys):
    assert run_cli(baselines) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["scenario", "runs", "jobs", "events", "wall", "(s)"]
    scenario, runs, jobs, events, seconds = row.split()
    assert (scenario, runs, jobs) == ("figure7", "4", "3")
    assert int(events) > 0 and float(seconds) >= 0
    assert list(tmp_path.iterdir()) == []


def test_check_without_a_baseline_fails_and_writes_nothing(baselines, tmp_path, capsys):
    assert run_cli(baselines, "--check") == 1
    captured = capsys.readouterr()
    assert f"no baseline at {baselines / 'BENCH_figure7.json'}" in captured.out
    assert "--update" in captured.out
    assert "FAILED" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_update_writes_exactly_the_record_fields_then_check_passes(baselines, capsys):
    assert run_cli(baselines, "--update") == 0
    record = json.loads((baselines / "BENCH_figure7.json").read_text())
    assert set(record) == RECORD_FIELDS
    assert (record["scenario"], record["job_count"], record["seed"]) == ("figure7", 3, 0)
    assert record["runs"] == 4 and record["events_processed"] > 0
    assert run_cli(baselines, "--check") == 0
    assert "figure7: ok" in capsys.readouterr().out


#: A value each record field can be edited to in a baseline.
EDITS = {
    "format": 2,
    "scenario": "figure8",
    "job_count": 4,
    "seed": 1,
    "runs": 5,
    "events_processed": 1,
    "metrics_digest": "0" * 64,
}


@pytest.mark.parametrize("field", sorted(EDITS))
def test_check_fails_naming_an_edited_field(baselines, capsys, field):
    assert run_cli(baselines, "--update") == 0
    path = baselines / "BENCH_figure7.json"
    baseline = json.loads(path.read_text())
    measured = baseline[field]
    baseline[field] = EDITS[field]
    path.write_text(json.dumps(baseline))
    capsys.readouterr()
    assert run_cli(baselines, "--check") == 1
    captured = capsys.readouterr()
    assert f"  {field}: baseline {baseline[field]}, measured {measured}\n" in captured.out
    assert "--update" in captured.out
    assert "FAILED" in captured.err


def test_timing_cannot_change_the_verdict(baselines, monkeypatch, capsys):
    assert run_cli(baselines, "--update") == 0
    real = time.perf_counter
    monkeypatch.setattr(time, "perf_counter", lambda: real() * 100.0)
    assert run_cli(baselines, "--check") == 0
    assert "figure7: ok" in capsys.readouterr().out


def test_list_names_benchable_scenarios(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "figure7" in out and "figure8" in out
    assert "table1" not in out  # static scenarios cannot be benchmarked


@pytest.mark.parametrize(
    "argv",
    [["figure99"], ["table1"], ["figure7", "--job-count", "0"]],
    ids=["unknown-scenario", "static-scenario", "no-jobs"],
)
def test_unrunnable_selection_is_a_usage_error(baselines, tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--baseline-dir", str(baselines), "--check"])
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_check_gives_each_scenario_its_own_verdict(baselines, capsys):
    argv = ["figure7", "fault-sweep", "--job-count", "3", "--seed", "0",
            "--baseline-dir", str(baselines)]
    assert main(argv + ["--update"]) == 0
    path = baselines / "BENCH_fault-sweep.json"
    baseline = json.loads(path.read_text())
    baseline["events_processed"] += 1
    path.write_text(json.dumps(baseline))
    capsys.readouterr()
    assert main(argv + ["--check"]) == 1
    out = capsys.readouterr().out
    assert "figure7: ok" in out
    assert "fault-sweep: FAILED" in out
    assert "figure7: FAILED" not in out


def test_scenario_selection():
    assert _resolve_scenarios([]) == list(DEFAULT_SCENARIOS)
    assert _resolve_scenarios(["all"]) == list(benchable_scenarios())
    assert "shard-replay" in _resolve_scenarios(["all"])
    assert _resolve_scenarios(["figure8", "figure7"]) == ["figure8", "figure7"]
