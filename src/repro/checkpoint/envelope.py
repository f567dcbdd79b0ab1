"""Checkpoint envelopes: schema-versioned JSON files.

A checkpoint is a plain JSON document with a ``format`` version stamped
into every envelope, written atomically into place by
:func:`save_checkpoint` and read back, validated, by
:func:`load_checkpoint`.  ``repro-cli checkpointed --checkpoint-path`` and
the daemon's ``checkpointed`` operation write checkpoints as such files,
and ``--resume`` reads them back.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Union

#: Schema version of checkpoint envelopes.  Bump on any incompatible change
#: to the captured-state layout; loaders refuse other generations loudly
#: (a checkpoint silently misread as another schema would corrupt a run).
CHECKPOINT_FORMAT = 1


class CheckpointError(RuntimeError):
    """Base class of all checkpoint/restore failures."""


class CheckpointUnsupported(CheckpointError):
    """The simulation's current state cannot be captured natively.

    Raised by the capture layer when the configuration uses features outside
    the native snapshot's supported envelope (malleability, faults, GRAM
    jitter, background load) or when an unrecognised event is pending —
    always *before* anything is written, never as a silently partial file.
    """


class RestoreError(CheckpointError):
    """A checkpoint could not be turned back into a consistent run."""


def validate_envelope(data: Any) -> Dict[str, Any]:
    """Check that *data* is a checkpoint envelope of this schema generation."""
    if not isinstance(data, dict):
        raise RestoreError(f"checkpoint envelope must be a mapping, got {type(data).__name__}")
    fmt = data.get("format")
    if fmt != CHECKPOINT_FORMAT:
        raise RestoreError(
            f"checkpoint format {fmt!r} is not supported (expected {CHECKPOINT_FORMAT})"
        )
    for field in ("mode", "config", "time"):
        if field not in data:
            raise RestoreError(f"checkpoint envelope is missing the {field!r} field")
    return data


def save_checkpoint(data: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write *data* to *path* atomically (tmp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(data, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a checkpoint file back, validating its schema generation."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RestoreError(f"checkpoint file {path} does not exist") from None
    except (OSError, json.JSONDecodeError) as error:
        raise RestoreError(f"checkpoint file {path} is unreadable: {error}") from None
    return validate_envelope(data)
