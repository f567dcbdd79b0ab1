"""Checkpoint files: one JSON header line, then the pickled run.

A checkpoint is a whole :class:`~repro.experiments.setup.SimulationRun`,
pickled (protocol 5) at any instant, even between two events of one
instant.  The JSON header in front of it holds:

* ``format`` (:data:`CHECKPOINT_FORMAT`) and ``sources``
  (:func:`source_fingerprint`): a pickle names classes and restores their
  fields as they were, so it loads only into the code that wrote it;
* ``config`` and ``time`` (``float.hex``) of the run;
* ``workload_size`` and ``workload_digest``: the workload and its job list
  pickle as persistent ids, so a checkpoint of a 500,000-job replay does
  not carry the workload.  Loading rebuilds it from the configuration (or
  takes the caller's) and checks it against the digest;
* ``counters``: the next value of each process-global id counter.  Loading
  moves the loading process's counters forward to at least these values,
  so no job created after the load takes an id the run already holds.

Loading checks the header before it unpickles anything, and refuses a file
of another format or fingerprint, a truncated file and a failed unpickle
with :class:`RestoreError`.  Unpickling runs code named in the file, so
load only files this program wrote: the daemon reads only its own store's
``checkpoints/<key>`` directory, and ``repro-cli checkpointed --resume``
loads the file its user names.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import sys
import tempfile
from collections import deque
from contextlib import suppress
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.experiments.setup import ExperimentConfig, SimulationRun, build_workload
from repro.sim.rng import RandomStreams
from repro.workloads.spec import WorkloadSpec

#: Version of the checkpoint file layout; loaders refuse other versions.
CHECKPOINT_FORMAT = 2


class CheckpointError(RuntimeError):
    """Base class of all checkpoint/restore failures."""


class CheckpointUnsupported(CheckpointError):
    """The run holds something that does not pickle (a generator, a lambda, a
    tracer); raised before anything is written, naming what failed."""


class RestoreError(CheckpointError):
    """A checkpoint could not be turned back into a consistent run."""


def source_fingerprint() -> str:
    """Digest of the ``repro`` sources, the Python major.minor and numpy's version."""
    import numpy

    from repro.experiments.engine import code_version

    text = "%s|python %d.%d|numpy %s" % (code_version(), *sys.version_info[:2], numpy.__version__)
    return hashlib.sha256(text.encode()).hexdigest()


def _id_counters() -> Dict[str, Any]:
    """The process-global ``itertools.count`` id counters, by name."""
    from repro.cluster import allocation, gram, local_rm
    from repro.koala import claiming, job

    return {"koala.job": job._job_ids, "koala.claiming": claiming._claim_ids,
            "cluster.gram": gram._gram_job_ids, "cluster.local_rm": local_rm._local_job_ids,
            "cluster.allocation": allocation._allocation_ids}


def _next_id(counter) -> int:
    """The value an ``itertools.count`` yields next, without taking it."""
    return int(repr(counter)[len("count("):-1])


def workload_digest(workload: WorkloadSpec) -> str:
    """Exact content digest of a workload specification, cached on it.

    Catches a rebuilt workload of the right size but with other specs (a
    custom workload object, a changed generator, another seed).
    """
    cached = getattr(workload, "_checkpoint_digest", None)
    if cached is None:
        digest = hashlib.sha256()
        for spec in workload.jobs:
            digest.update(
                f"{float(spec.submit_time).hex()}|{spec.profile_name}|{spec.kind.value}|"
                f"{spec.initial_processors}|{spec.minimum_processors}|"
                f"{spec.maximum_processors}|{spec.name}\n".encode()
            )
        cached = workload._checkpoint_digest = digest.hexdigest()
    return cached


class _Pickler(pickle.Pickler):
    """Pickles a run with its workload and job list as persistent ids."""

    def __init__(self, file, workload: WorkloadSpec) -> None:
        super().__init__(file, protocol=5)
        self._workload = workload
        self._jobs = workload.jobs

    def persistent_id(self, obj):
        if obj is self._jobs:
            return "jobs"
        if obj is self._workload:
            return "workload"
        return None


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, workload: WorkloadSpec) -> None:
        super().__init__(file)
        self._held = {"workload": workload, "jobs": workload.jobs}

    def persistent_load(self, pid):
        return self._held[pid]


def save_checkpoint(run: SimulationRun, path: Union[str, Path]) -> Path:
    """Pickle *run* into the checkpoint file *path*, atomically.

    Raises :class:`CheckpointUnsupported` before anything is written when
    the run does not pickle.
    """
    workload = run.workload
    blob = io.BytesIO()
    try:
        _Pickler(blob, workload).dump(run)
    except (pickle.PicklingError, TypeError, AttributeError, RecursionError) as error:
        raise CheckpointUnsupported(f"the run cannot be pickled: {error}") from None
    header = {
        "format": CHECKPOINT_FORMAT,
        "sources": source_fingerprint(),
        "config": run.config.to_dict(),
        "time": float(run.env.now).hex(),
        "workload_size": len(workload.jobs),
        "workload_digest": workload_digest(workload),
        "counters": {name: _next_id(counter) for name, counter in _id_counters().items()},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            handle.write(blob.getbuffer())
        os.replace(tmp_name, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def read_header(path: Union[str, Path]) -> Dict[str, Any]:
    """The checked header of the checkpoint file *path*; nothing is unpickled."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
    except OSError as error:
        raise RestoreError(f"checkpoint file {path} is unreadable: {error}") from None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise RestoreError(f"checkpoint file {path} has no format {CHECKPOINT_FORMAT} header")
    if header.get("sources") != source_fingerprint():
        raise RestoreError(
            f"checkpoint file {path} was written by other code (its sources "
            "fingerprint differs from this program's)"
        )
    return header


def load_checkpoint(
    path: Union[str, Path], *, workload: Optional[WorkloadSpec] = None,
    config: Optional[ExperimentConfig] = None,
) -> SimulationRun:
    """Load the run pickled in the checkpoint file *path*.

    The header is checked first, and with *config* the configuration it
    records must equal *config*.  The workload is rebuilt from the
    recorded configuration unless *workload* is given (a run over a
    hand-built :class:`~repro.workloads.spec.WorkloadSpec` needs it) and
    must match the recorded digest.  Only then is the run unpickled.
    """
    path = Path(path)
    header = read_header(path)
    recorded = ExperimentConfig.from_dict(header["config"])
    if config is not None and recorded.to_dict() != config.to_dict():
        raise RestoreError(f"checkpoint {path} was captured from a different configuration")
    if workload is None:
        workload = build_workload(recorded, RandomStreams(seed=recorded.seed))
    if (
        len(workload.jobs) != header["workload_size"]
        or workload_digest(workload) != header["workload_digest"]
    ):
        raise RestoreError(
            f"the workload differs from the one checkpoint {path} was taken over; "
            "a run over a custom WorkloadSpec loads with workload=<that spec>"
        )
    try:
        with open(path, "rb") as handle:
            handle.readline()
            run = _Unpickler(handle, workload).load()
    except Exception as error:  # a truncated stream, a class that moved: anything
        raise RestoreError(f"checkpoint file {path} does not unpickle: {error!r}") from error
    if not isinstance(run, SimulationRun):
        raise RestoreError(f"checkpoint file {path} holds a {type(run).__name__}, not a run")
    for name, counter in _id_counters().items():
        behind = int(header["counters"].get(name, 0)) - _next_id(counter)
        deque(islice(counter, max(behind, 0)), maxlen=0)
    return run
