"""The CLI entry points end quietly when their reader closes stdout early.

``repro-cli trace summary t.jsonl | head -1`` closes the pipe after one
line.  Each case runs an entry point in a fresh interpreter whose stdout is
a pipe with no reader left, so the first write fails with ``EPIPE``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.setup import ExperimentConfig, run_experiment

SRC = str(Path(repro.__file__).resolve().parents[1])


def _run_with_closed_stdout(*args: str) -> subprocess.CompletedProcess:
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    try:
        return subprocess.run(
            [sys.executable, "-m", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    config = ExperimentConfig(
        name="pipe", workload="Wm", job_count=4, malleability_policy="FPSMA", trace=str(path)
    )
    run_experiment(config)
    return str(path)


@pytest.mark.parametrize("view", ["summary", "timeline"])
def test_repro_cli_trace_views_survive_a_closed_pipe(trace_file, view):
    completed = _run_with_closed_stdout("repro.experiments.cli", "trace", view, trace_file)
    assert "Traceback" not in completed.stderr
    assert "BrokenPipeError" not in completed.stderr
    assert completed.returncode == 1

