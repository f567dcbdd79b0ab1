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
    # The capture mode follows the configuration; there is nothing to choose.
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


def test_checkpointed_defaults_to_replay_outside_native_envelope(capsys):
    # figure7 is malleable — native capture is impossible, so the run must
    # fall back to replay instead of erroring out.
    assert main(["checkpointed", "--scenario", "figure7", "--job-count", "10"]) == 0
    output = capsys.readouterr().out
    assert "all done: True" in output


def test_checkpointed_command_writes_and_resumes(tmp_path, capsys):
    target = tmp_path / "run.json"
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
    written = sorted(tmp_path.glob("run-*.json"))
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
    target = tmp_path / "run.json"
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
    written = sorted(tmp_path.glob("run-*.json"))
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
