"""The daemon's ``checkpointed`` operation: windowed runs, crash resume."""

from __future__ import annotations

import asyncio
import json
import logging
import os
from pathlib import Path

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
    """A paper configuration: malleable jobs under background load."""
    _label, config = get_scenario("figure7").expand(job_count=60)[0]
    return config.to_dict()


#: ``(config fields, checkpoint interval)``: the sharded-replay config and a
#: paper configuration.
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
    leftovers = list((tmp_path / "checkpoints").rglob("state-*.ckpt"))
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


def _leftovers(config: dict, every: float, directory) -> list:
    """What a worker that died mid-run leaves behind: its checkpoint files.

    The same config is run standalone, writing checkpoint files under the
    worker's names into its directory; ``run_checkpointed`` leaves them all
    (only the worker deletes them once its run completes).
    """
    from repro.checkpoint import run_checkpointed

    out = run_checkpointed(
        ExperimentConfig.from_dict(config),
        checkpoint_every=every,
        path=directory / "state.ckpt",
    )
    assert out["all_done"] and out["checkpoint_paths"]
    return out["checkpoint_paths"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_worker_resumes_from_leftover_checkpoint(tmp_path, case):
    """A repeat request after a mid-run crash resumes, not restarts."""
    from repro.checkpoint import read_header

    make_fields, every = CASES[case]
    config = make_fields()
    directory = tmp_path / "ck"
    paths = _leftovers(config, every, directory)
    survivor = paths[-1]
    survivor_time = float.fromhex(read_header(survivor)["time"])
    for path in paths[:-1]:
        os.unlink(path)

    resumed = _execute_checkpointed(config, every, str(directory))
    assert resumed["all_done"]
    assert resumed["resumed_at"] == survivor_time
    assert resumed["digest"] == _serial_digest(config)
    # ... and this completed run cleaned the directory up again.
    assert list(directory.glob("state-*.ckpt")) == []


def test_a_leftover_written_by_other_code_is_skipped_and_logged(tmp_path):
    """A checkpoint whose header carries another sources fingerprint is not
    unpickled: the worker says why and starts over, to the straight digest."""
    from repro.checkpoint import read_header

    config = _figure7_fields()
    directory = tmp_path / "ck"
    paths = _leftovers(config, 600.0, directory)
    for path in paths[1:]:
        os.unlink(path)
    path = Path(paths[0])
    _line, blob = path.read_bytes().split(b"\n", 1)
    header = dict(read_header(path), sources="0" * 64)
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)

    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repro.service")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        resumed = _execute_checkpointed(config, 600.0, str(directory))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert resumed["resumed_at"] is None
    assert resumed["digest"] == _serial_digest(config)
    (record,) = records
    assert str(path) in record.getMessage() and "other code" in record.getMessage()
