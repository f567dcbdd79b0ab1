"""The daemon's ``checkpointed`` operation: windowed runs, crash resume."""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.checkpoint import SimulationRun
from repro.experiments.scenarios import get_scenario
from repro.experiments.setup import ExperimentConfig
from repro.service.daemon import ExperimentService, _execute_checkpointed

JOBS = 300


def _config_fields() -> dict:
    return {
        "name": "shard-replay",
        "workload": "shard-bursts",
        "job_count": JOBS,
        "malleability_policy": None,
        "approach": "PRA",
        "placement_policy": "WF",
        "seed": 0,
        "gram_latency_jitter": 0.0,
        "background_fraction": 0.0,
        "time_limit": 4.0e9,
    }


def _figure7_fields() -> dict:
    """A paper configuration: malleable, so its checkpoints are replay mode."""
    _label, config = get_scenario("figure7").expand(job_count=60)[0]
    return config.to_dict()


#: ``(config fields, checkpoint interval)``: a native-capture config and a
#: paper configuration outside the native envelope.
CASES = {
    "shard-replay": (_config_fields, 200.0),
    "figure7": (_figure7_fields, 600.0),
}


def _serial_digest(fields: dict) -> str:
    run = SimulationRun.fresh(
        ExperimentConfig.from_dict(fields), retain_jobs=False, collect_windowed=True
    )
    run.run_to_completion(drain=True)
    return run.collector.window.digest


def _dispatch(service, request):
    async def main():
        await service.start(socket_path=str(service.store.directory / "sock"))
        try:
            return await service.dispatch(request)
        finally:
            await service.aclose()

    return asyncio.run(main())


@pytest.mark.parametrize("case", sorted(CASES))
def test_checkpointed_op_runs_and_matches_serial(tmp_path, case):
    make_fields, every = CASES[case]
    fields = make_fields()
    service = ExperimentService(tmp_path, workers=1)
    response = _dispatch(
        service,
        {"op": "checkpointed", "config": fields, "checkpoint_every": every},
    )
    assert response["ok"], response
    assert response["all_done"]
    assert response["jobs"] == fields["job_count"]
    assert response["checkpoints"] > 0
    assert response["resumed_at"] is None
    assert response["digest"] == _serial_digest(fields)
    # Completed runs leave no checkpoints behind.
    leftovers = list((tmp_path / "checkpoints").rglob("state-*.json"))
    assert leftovers == []


@pytest.mark.parametrize("every", [0, "nan"])
def test_checkpointed_op_validates_interval(tmp_path, every):
    service = ExperimentService(tmp_path, workers=1)
    response = _dispatch(
        service,
        {"op": "checkpointed", "config": _config_fields(), "checkpoint_every": every},
    )
    assert not response["ok"]
    assert response["error"]["code"] == "bad_request"


def test_run_checkpointed_rejects_a_nan_interval():
    from repro.checkpoint import run_checkpointed

    with pytest.raises(ValueError, match="checkpoint_every must be > 0"):
        run_checkpointed(ExperimentConfig(), checkpoint_every=float("nan"))


def test_checkpointed_op_rejects_bad_config(tmp_path):
    service = ExperimentService(tmp_path, workers=1)
    fields = _config_fields()
    fields["no_such_field"] = 1
    response = _dispatch(service, {"op": "checkpointed", "config": fields})
    assert not response["ok"]
    assert response["error"]["code"] == "bad_config"


@pytest.mark.parametrize("case", sorted(CASES))
def test_worker_resumes_from_leftover_checkpoint(tmp_path, case):
    """A repeat request after a mid-run crash resumes, not restarts."""
    from repro.checkpoint import load_checkpoint, run_checkpointed

    make_fields, every = CASES[case]
    config = make_fields()
    directory = tmp_path / "ck"

    # Recreate what a crashed worker leaves behind: run the same config
    # standalone with checkpoint files in the worker's directory, completed
    # runs delete them — so copy the files out first and put one back.
    out = run_checkpointed(
        ExperimentConfig.from_dict(config),
        checkpoint_every=every,
        path=directory / "state.json",
    )
    assert out["all_done"] and out["checkpoint_paths"]
    survivor = out["checkpoint_paths"][-1]
    survivor_time = float.fromhex(load_checkpoint(survivor)["time"])
    for path in out["checkpoint_paths"][:-1]:
        os.unlink(path)

    resumed = _execute_checkpointed(config, every, str(directory))
    assert resumed["all_done"]
    assert resumed["resumed_at"] == survivor_time
    assert resumed["digest"] == _serial_digest(config)
    # ... and this completed run cleaned the directory up again.
    assert list(directory.glob("state-*.json")) == []
