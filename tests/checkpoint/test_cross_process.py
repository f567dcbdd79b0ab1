"""A checkpoint written in one interpreter resumes exactly in another.

Each example pickles a run in a fresh interpreter and loads it in a second
one under another ``PYTHONHASHSEED``.  Both start their process-global id
counters at 1, so a job, an allocation or a local job created after the
load would reuse the id of one the run holds unless loading moves the
counters past the run's ids: at 30% of the horizon a KOALA job id collides
(``job ... was already submitted``) and figure7 loses a local job's
completion, at 10% an allocation id collides (``AllocationError``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = """
import json, sys
from repro.checkpoint import SimulationRun, load_checkpoint, save_checkpoint
from repro.experiments.scenarios import get_scenario
from repro.metrics.collector import ExperimentMetrics, run_digest

mode, scenario, label, fraction, path = sys.argv[1:]
if mode == "dump":
    config = dict(get_scenario(scenario).expand(job_count=60))[label]
    run = SimulationRun.fresh(config)
    run.env.run(until=float(fraction) * run.workload.duration)
    save_checkpoint(run, path)
else:
    run = load_checkpoint(path)
run.run_to_completion()
metrics = ExperimentMetrics.from_run(
    run.scheduler, run.multicluster, label=run.config.label, faults=run.injector
)
print(json.dumps([run_digest(metrics.to_dict()), run.env.processed_events]))
"""


def _run(mode: str, hash_seed: str, *args: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "scenario, label, fraction",
    [
        ("figure7", "FPSMA/Wm", "0.3"),
        ("fault-sweep", "FPSMA/mtbf=10800", "0.3"),
        ("figure7", "FPSMA/Wm", "0.1"),
    ],
)
def test_a_checkpoint_resumes_exactly_in_another_interpreter(
    tmp_path, scenario, label, fraction
):
    path = str(tmp_path / "run.ckpt")
    straight = _run("dump", "1", scenario, label, fraction, path)
    resumed = _run("load", "2", scenario, label, fraction, path)
    assert resumed == straight
