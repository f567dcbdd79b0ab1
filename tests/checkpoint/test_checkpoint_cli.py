"""The ``shard-replay`` and ``checkpointed`` subcommands of ``repro-cli``."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main


def test_parser_knows_the_new_commands():
    parser = build_parser()
    assert parser.parse_args(["shard-replay"]).command == "shard-replay"
    args = parser.parse_args(
        ["checkpointed", "--scenario", "shard-replay", "--every", "600"]
    )
    assert args.command == "checkpointed"
    assert args.every == 600.0
    # A checkpoint is the pickled run; there is no capture mode to choose.
    with pytest.raises(SystemExit):
        parser.parse_args(["checkpointed", "figure7", "--mode", "native"])
    # Checkpoints persist as numbered files (--checkpoint-path), the form
    # --resume reads; there is no second, content-addressed surface.
    with pytest.raises(SystemExit):
        parser.parse_args(["checkpointed", "figure7", "--checkpoint-store", "ckpts"])


def test_shard_replay_command(capsys):
    assert main(["shard-replay", "--job-count", "400", "--sequential"]) == 0
    output = capsys.readouterr().out
    assert "Sharded replay: 400 jobs" in output
    assert "all done: True" in output
    assert "metrics digest:" in output


@pytest.mark.parametrize("gap", ["0", "-1", "nan"])
def test_shard_replay_rejects_a_min_gap_that_is_not_positive(capsys, gap):
    with pytest.raises(SystemExit) as exit_info:
        main(["shard-replay", "--job-count", "400", "--min-gap", gap])
    assert exit_info.value.code == 2
    assert "min_gap must be > 0" in capsys.readouterr().err


def test_checkpointed_rejects_a_nan_interval(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["checkpointed", "--scenario", "figure7", "--job-count", "5", "--every", "nan"])
    assert exit_info.value.code == 2
    assert "checkpoint_every must be > 0" in capsys.readouterr().err


def test_checkpointed_runs_a_malleable_scenario(tmp_path, capsys):
    argv = ["checkpointed", "--scenario", "figure7", "--job-count", "10", "--every", "300"]
    assert main(argv + ["--checkpoint-path", str(tmp_path / "run.ckpt")]) == 0
    output = capsys.readouterr().out
    assert "all done: True" in output
    digest = output.split("metrics digest:")[1].split()[0]
    first = sorted(tmp_path.glob("run-*.ckpt"))[0]
    assert main(argv + ["--resume", str(first)]) == 0
    assert f"metrics digest: {digest}" in capsys.readouterr().out


def test_checkpointed_command_writes_and_resumes(tmp_path, capsys):
    target = tmp_path / "run.ckpt"
    argv = [
        "checkpointed",
        "--scenario",
        "shard-replay",
        "--job-count",
        "1500",
        "--every",
        "1500",
        "--checkpoint-path",
        str(target),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "all done: True" in first
    digest = next(
        line.split()[-1] for line in first.splitlines() if "metrics digest" in line
    )
    written = sorted(tmp_path.glob("run-*.ckpt"))
    assert written

    resume_argv = [
        "checkpointed",
        "--scenario",
        "shard-replay",
        "--job-count",
        "1500",
        "--resume",
        str(written[-1]),
    ]
    assert main(resume_argv) == 0
    second = capsys.readouterr().out
    assert "all done: True" in second
    assert digest in second  # resumed run reproduces the identical digest


def test_checkpointed_rejects_mismatched_resume(tmp_path, capsys):
    target = tmp_path / "run.ckpt"
    assert (
        main(
            [
                "checkpointed",
                "--scenario",
                "shard-replay",
                "--job-count",
                "1500",
                "--every",
                "1500",
                "--checkpoint-path",
                str(target),
            ]
        )
        == 0
    )
    capsys.readouterr()
    written = sorted(tmp_path.glob("run-*.ckpt"))
    with pytest.raises(SystemExit):
        main(
            [
                "checkpointed",
                "--scenario",
                "shard-replay",
                "--job-count",
                "999",
                "--resume",
                str(written[-1]),
            ]
        )
