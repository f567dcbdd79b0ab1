"""Checkpoint files: the header, what loading refuses, and loud capture failures."""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointUnsupported,
    RestoreError,
    SimulationRun,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.experiments.scenarios import get_scenario
from repro.faults import FaultEvent, register_fault_model
from repro.faults import models as fault_models


def _run(job_count: int = 10, **overrides) -> SimulationRun:
    _label, config = get_scenario("figure7").expand(job_count=job_count)[0]
    run = SimulationRun.fresh(config.with_overrides(**overrides) if overrides else config)
    run.env.run(until=0.5 * run.workload.duration)
    return run


class _Marker:
    """Unpickling it creates the file *path*: a payload that runs code."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return Path.touch, (Path(self.path),)


def _rewrite(path, header=None, payload=None) -> None:
    """Replace the header and/or the pickle of the checkpoint file *path*."""
    line, blob = path.read_bytes().split(b"\n", 1)
    if header is not None:
        line = json.dumps(header).encode()
    if payload is not None:
        blob = pickle.dumps(payload, protocol=5)
    path.write_bytes(line + b"\n" + blob)


def test_save_and_load_roundtrip(tmp_path):
    run = _run()
    path = save_checkpoint(run, tmp_path / "run.ckpt")
    header = read_header(path)
    assert header["format"] == CHECKPOINT_FORMAT
    assert header["config"] == run.config.to_dict()
    assert float.fromhex(header["time"]) == run.env.now
    assert header["workload_size"] == len(run.workload.jobs)
    assert set(header["counters"]) == {
        "koala.job", "koala.claiming", "cluster.gram", "cluster.local_rm", "cluster.allocation"
    }
    loaded = load_checkpoint(path)
    assert loaded.env.now == run.env.now
    assert loaded.env.processed_events == run.env.processed_events
    # The workload is rebuilt, not unpickled: the submitter walks the new one.
    assert loaded.submitter.workload is loaded.workload is not run.workload


@pytest.mark.parametrize(
    "field, value",
    [("format", CHECKPOINT_FORMAT + 1), ("sources", "0" * 64)],
    ids=["format", "sources"],
)
def test_the_header_is_checked_before_anything_is_unpickled(tmp_path, field, value):
    path = save_checkpoint(_run(), tmp_path / "run.ckpt")
    marker = tmp_path / "marker"
    header = read_header(path)
    _rewrite(path, header=dict(header, **{field: value}), payload=_Marker(marker))
    with pytest.raises(RestoreError, match="format|other code"):
        load_checkpoint(path)
    assert not marker.exists()
    # With the header intact the payload is unpickled, and runs: the reason
    # only files this program wrote may be loaded.
    _rewrite(path, header=header)
    with pytest.raises(RestoreError, match="not a run"):
        load_checkpoint(path)
    assert marker.exists()


def test_a_different_configuration_is_refused_before_unpickling(tmp_path):
    run = _run()
    path = save_checkpoint(run, tmp_path / "run.ckpt")
    marker = tmp_path / "marker"
    _rewrite(path, payload=_Marker(marker))
    with pytest.raises(RestoreError, match="different configuration"):
        load_checkpoint(path, config=run.config.with_overrides(seed=1))
    assert not marker.exists()


@pytest.mark.parametrize("keep", [0, 40, -10], ids=["empty", "header-cut", "pickle-cut"])
def test_load_rejects_a_truncated_file(tmp_path, keep):
    path = save_checkpoint(_run(), tmp_path / "run.ckpt")
    data = path.read_bytes()
    path.write_bytes(data[:keep])
    with pytest.raises(RestoreError):
        load_checkpoint(path)


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("{not json\n")
    with pytest.raises(RestoreError):
        read_header(path)
    with pytest.raises(RestoreError, match="unreadable"):
        read_header(tmp_path / "missing.ckpt")


def test_a_run_that_does_not_pickle_is_refused_before_any_file_is_written(
    tmp_path, monkeypatch
):
    def generator_model(rng, clusters, *, at=100.0):
        name = sorted(clusters)[0]
        yield FaultEvent(time=float(at), cluster=name, processors=1)

    monkeypatch.setattr(fault_models, "_MODELS", dict(fault_models._MODELS))
    register_fault_model("test-generator-model", generator_model)
    run = _run(fault_model="fault:test-generator-model")
    with pytest.raises(CheckpointUnsupported, match="generator"):
        save_checkpoint(run, tmp_path / "run.ckpt")
    assert list(tmp_path.iterdir()) == []
