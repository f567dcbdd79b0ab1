"""Envelope schema and atomic persistence."""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import (
    CHECKPOINT_FORMAT,
    RestoreError,
    load_checkpoint,
    save_checkpoint,
    validate_envelope,
)


def _envelope(time_hex: str = (0.0).hex()) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "mode": "replay",
        "config": {"name": "x"},
        "time": time_hex,
    }


def test_validate_accepts_minimal_envelope():
    validate_envelope(_envelope())


@pytest.mark.parametrize("missing", ["format", "mode", "config", "time"])
def test_validate_rejects_missing_field(missing):
    data = _envelope()
    del data[missing]
    with pytest.raises(RestoreError):
        validate_envelope(data)


def test_validate_rejects_format_mismatch():
    data = _envelope()
    data["format"] = CHECKPOINT_FORMAT + 1
    with pytest.raises(RestoreError, match="format"):
        validate_envelope(data)


def test_save_and_load_roundtrip(tmp_path):
    data = _envelope()
    path = tmp_path / "ckpt.json"
    save_checkpoint(data, path)
    assert load_checkpoint(path) == data
    # The file is plain JSON, inspectable by hand.
    assert json.loads(path.read_text())["mode"] == "replay"


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(RestoreError):
        load_checkpoint(path)
