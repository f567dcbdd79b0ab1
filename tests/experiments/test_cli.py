"""Tests of the ``repro-cli`` command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.experiments.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the CLI's default result cache at a per-test directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def test_parser_knows_all_commands():
    parser = build_parser()
    samples = {
        "list": ["list", "scenarios"],
        "run": ["run", "figure7"],
        "sweep": ["sweep", "figure7"],
        "custom": ["custom"],
    }
    for command, argv in samples.items():
        assert parser.parse_args(argv).command == command


def test_parser_has_ten_commands():
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(subparsers.choices) == [
        "checkpointed",
        "client",
        "custom",
        "list",
        "run",
        "serve",
        "shard-replay",
        "sweep",
        "tournament",
        "trace",
    ]


def test_list_takes_one_of_four_kinds():
    parser = build_parser()
    for kind in ("scenarios", "policies", "traces", "faults"):
        assert parser.parse_args(["list", kind]).kind == kind
    for argv in (["list"], ["list", "jobs"], ["list-scenarios"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_scenarios_names_every_registered_scenario(capsys):
    assert main(["list", "scenarios"]) == 0
    output = capsys.readouterr().out
    for name in ("figure6", "figure7", "figure8", "table1", "ablation-policy"):
        assert name in output


def test_run_static_scenario_prints_the_scaling_table(capsys):
    assert main(["run", "figure6"]) == 0
    output = capsys.readouterr().out
    assert "Figure 6" in output
    assert "gadget2" in output and "ft" in output


def test_run_table1_scenario(capsys):
    assert main(["run", "table1"]) == 0
    output = capsys.readouterr().out
    assert "Table I" in output and "Delft" in output


def test_custom_command_summary_and_csv(capsys):
    assert (
        main(
            ["custom", "--workload", "Wm", "--policy", "EGS", "--job-count", "6", "--seed", "3"]
        )
        == 0
    )
    summary = capsys.readouterr().out
    assert "EGS/Wm" in summary and "mean exec" in summary

    assert (
        main(
            [
                "custom",
                "--workload",
                "Wm",
                "--policy",
                "none",
                "--job-count",
                "4",
                "--seed",
                "3",
                "--csv",
            ]
        )
        == 0
    )
    csv = capsys.readouterr().out
    assert csv.splitlines()[0].startswith("name,profile,kind")
    assert len(csv.strip().splitlines()) == 5  # header + 4 jobs


def test_run_command_renders_figure7_with_reduced_jobs_and_parallel_workers(capsys):
    assert main(["run", "figure7", "--job-count", "8", "--seed", "1", "--jobs", "2"]) == 0
    output = capsys.readouterr().out
    assert "Figure 7(a)" in output and "Figure 7(f)" in output
    assert "FPSMA/Wm" in output and "EGS/Wmr" in output


def test_sweep_prints_the_merged_summary(capsys):
    assert main(["sweep", "ablation-threshold", "--job-count", "6", "--seed", "1"]) == 0
    output = capsys.readouterr().out
    assert "Sweep ablation-threshold" in output
    assert "threshold=0" in output


def test_sweep_rejects_static_scenarios():
    with pytest.raises(SystemExit):
        main(["sweep", "figure6"])


def test_no_cache_leaves_the_cache_directory_empty(tmp_path, capsys):
    cache_dir = tmp_path / "explicit-cache"
    assert (
        main(
            [
                "run",
                "figure7",
                "--job-count",
                "4",
                "--no-cache",
                "--cache-dir",
                str(cache_dir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert not cache_dir.exists()


def test_cache_dir_option_populates_the_cache(tmp_path, capsys):
    cache_dir = tmp_path / "explicit-cache"
    assert main(["sweep", "figure7", "--job-count", "4", "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert len(list(cache_dir.glob("*.json"))) == 4


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["--output", str(target), "run", "figure6"]) == 0
    assert capsys.readouterr().out == ""
    assert "Figure 6" in target.read_text(encoding="utf-8")


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nonsense"])


def test_list_policies_names_every_axis_and_signature(capsys):
    assert main(["list", "policies"]) == 0
    output = capsys.readouterr().out
    for kind in ("placement:", "malleability:", "approach:"):
        assert kind in output
    for name in ("WF", "EASY", "FPSMA", "AVERAGE_STEAL", "PRA", "PWA"):
        assert name in output
    # Parameter signatures and docstring one-liners are shown.
    assert "reserve_depth=1" in output
    assert "balance='fraction'" in output
    assert "FCFS placement with EASY backfilling" in output


def test_custom_with_policy_args(capsys):
    assert (
        main(
            [
                "custom",
                "--policy",
                "AVERAGE_STEAL",
                "--policy-arg",
                "balance=absolute",
                "--placement",
                "EASY",
                "--placement-arg",
                "reserve_depth=2",
                "--job-count",
                "4",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    summary = capsys.readouterr().out
    assert "AVERAGE_STEAL" in summary


def test_custom_rejects_unknown_policy_with_registered_names():
    with pytest.raises(SystemExit):
        main(["custom", "--policy", "EGSS", "--job-count", "2"])


def test_custom_rejects_bad_policy_arg():
    with pytest.raises(SystemExit):
        main(
            [
                "custom",
                "--policy",
                "EGS",
                "--policy-arg",
                "favour_interval=30",
                "--job-count",
                "2",
            ]
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["custom", "--job-count", "5", "--time-limit", "nan"],
        ["custom", "--job-count", "5", "--time-limit", "0"],
        ["run", "figure7", "--job-count", "5", "--no-cache", "--time-limit", "nan"],
        ["sweep", "figure7", "--job-count", "5", "--no-cache", "--time-limit", "-1"],
        ["custom", "--job-count", "5", "--mtbf", "nan"],
        ["custom", "--job-count", "5", "--mtbf", "3600", "--mttr", "nan"],
    ],
    ids=[
        "custom-time-limit-nan",
        "custom-time-limit-0",
        "run-time-limit-nan",
        "sweep-time-limit-negative",
        "mtbf-nan",
        "mttr-nan",
    ],
)
def test_times_no_run_can_reach_are_argument_errors(capsys, argv):
    # A NaN time limit or MTBF used to make the command run forever.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_an_infinite_time_limit_still_runs(capsys):
    assert main(["custom", "--job-count", "3", "--time-limit", "inf"]) == 0
    assert "FPSMA/Wm" in capsys.readouterr().out


def test_policy_arg_requires_a_policy():
    with pytest.raises(SystemExit):
        main(["custom", "--policy", "none", "--policy-arg", "balance=absolute"])


def test_run_new_policy_scenarios(capsys):
    assert main(["run", "average-steal", "--job-count", "6", "--seed", "1"]) == 0
    output = capsys.readouterr().out
    assert "AVERAGE_STEAL" in output
    assert main(["run", "backfilling", "--job-count", "6", "--seed", "1"]) == 0
    output = capsys.readouterr().out
    assert "EASY?reserve_depth=2" in output


# -- tournament ---------------------------------------------------------------


def test_tournament_prints_a_ranked_report(capsys):
    assert (
        main(["tournament", "--scenario", "figure7", "--seeds", "0,1", "--job-count", "4"])
        == 0
    )
    output = capsys.readouterr().out
    assert "Tournament: figure7" in output
    assert "2 seeds" in output and "95% CI" in output
    assert "Pareto frontier" in output


def test_tournament_repeat_is_byte_identical_from_the_warm_cache(capsys):
    argv = ["tournament", "--scenario", "figure7", "--seeds", "0,1", "--job-count", "4"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert warm == cold


def test_tournament_grid_flags_build_a_custom_grid(capsys):
    assert (
        main(
            [
                "tournament",
                "--policies",
                "EGS,none",
                "--load-factors",
                "1",
                "--faults",
                "none",
                "--seeds",
                "0,1",
                "--job-count",
                "3",
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "Tournament: tournament-custom" in output
    assert "EGS/load=1x/no-faults" in output
    assert "no-malleability/load=1x/no-faults" in output


def test_tournament_grid_flags_conflict_with_other_scenarios():
    with pytest.raises(SystemExit):
        main(["tournament", "--scenario", "figure7", "--policies", "EGS"])


def test_tournament_rejects_bad_seed_grids():
    for seeds in ("", "1,1", "-1"):
        with pytest.raises(SystemExit):
            main(["tournament", "--scenario", "figure7", "--seeds", seeds])


def test_tournament_rejects_unknown_rank_metric():
    with pytest.raises(SystemExit):
        main(
            [
                "tournament",
                "--scenario",
                "figure7",
                "--seeds",
                "0",
                "--job-count",
                "2",
                "--metric",
                "not_a_metric",
            ]
        )
