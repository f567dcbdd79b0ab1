"""CLI surface of the fault subsystem and the truncation warning."""

from __future__ import annotations

import pytest

from repro.experiments.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def test_list_faults_names_every_registered_model(capsys):
    assert main(["list", "faults"]) == 0
    output = capsys.readouterr().out
    for name in ("exp", "weibull", "outage", "drain", "trace"):
        assert name in output
    assert "--mtbf" in output


def test_list_scenarios_includes_the_fault_scenarios(capsys):
    assert main(["list", "scenarios"]) == 0
    output = capsys.readouterr().out
    assert "fault-sweep" in output
    assert "churn-replay" in output


def test_custom_run_with_mtbf_shorthand(capsys):
    assert (
        main(
            [
                "custom",
                "--workload",
                "Wmr",
                "--policy",
                "EGS",
                "--job-count",
                "6",
                "--mtbf",
                "7200",
                "--mttr",
                "300",
            ]
        )
        == 0
    )
    assert "EGS/Wmr" in capsys.readouterr().out


def test_fault_options_are_mutually_exclusive():
    with pytest.raises(SystemExit):
        main(["custom", "--job-count", "2", "--mtbf", "100", "--fault", "fault:exp"])


def test_mttr_requires_mtbf():
    with pytest.raises(SystemExit):
        main(["custom", "--job-count", "2", "--mttr", "100"])


def test_bad_fault_reference_is_an_argument_error():
    with pytest.raises(SystemExit):
        main(["custom", "--job-count", "2", "--fault", "fault:doesnotexist"])


def test_fault_trace_shorthand(tmp_path, capsys):
    path = tmp_path / "maintenance.flt"
    path.write_text("100 vu drain 40\n400 vu up 40\n", encoding="utf-8")
    assert (
        main(
            [
                "custom",
                "--workload",
                "Wm",
                "--job-count",
                "4",
                "--fault-trace",
                str(path),
            ]
        )
        == 0
    )
    assert "FPSMA/Wm" in capsys.readouterr().out


def test_sweep_accepts_fault_override(capsys):
    assert (
        main(
            [
                "sweep",
                "figure7",
                "--job-count",
                "4",
                "--mtbf",
                "14400",
                "--no-cache",
            ]
        )
        == 0
    )
    assert "Sweep figure7" in capsys.readouterr().out


def test_truncated_runs_warn_on_stderr(capsys):
    assert (
        main(
            [
                "custom",
                "--workload",
                "Wm",
                "--job-count",
                "6",
                "--time-limit",
                "400",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "WARNING" in captured.err
    assert "truncated=true" in captured.err


def test_finished_runs_do_not_warn(capsys):
    assert main(["custom", "--workload", "Wm", "--job-count", "3"]) == 0
    assert "WARNING" not in capsys.readouterr().err


def test_scenario_run_warns_when_time_limit_cuts_runs(capsys):
    assert (
        main(
            [
                "sweep",
                "ablation-policy",
                "--job-count",
                "5",
                "--time-limit",
                "500",
                "--no-cache",
            ]
        )
        == 0
    )
    assert "WARNING" in capsys.readouterr().err
