"""Structured, schema-versioned trace records and their sinks.

A trace is a stream of flat JSON records, one per line, written by the
instrumentation points of the simulator and the service:

============= ==============================================================
``header``    First record of every trace: ``schema`` plus run metadata.
``run_start`` One experiment run began (label, seed, time limit).
``sched``     The kernel scheduled an event (time, priority, id, type).
``ev``        The kernel fired an event (time, priority, type).
``queue``     Periodic kernel snapshot (pending events, processed count).
``hook``      A typed scheduler event went through the hook dispatcher
              (sim-time, event name, small payload, payload digest).
``run_end``   The run finished (sim time, events processed, metrics digest).
``span``      One timed service operation (daemon request handling).
``cache``     An engine or daemon cache/coalescing decision.
============= ==============================================================

Determinism is a design requirement, not an accident: records written during
a simulation carry **no wall-clock data**, so two runs of the same
configuration and seed produce byte-identical trace files — which is what
makes ``repro-cli trace diff`` meaningful (the first differing record *is*
the first divergence of the simulations).  Daemon-side ``span`` records do
carry wall-clock durations; they live in daemon traces, never in run traces.

Sinks are plain JSONL (``.jsonl``/``.json``) or gzip-compressed JSONL
(``.gz``, the compact binary format — stdlib only, ~10x smaller).  Records
are serialised with sorted keys and no whitespace, so identical records are
identical bytes.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.setup import ExperimentConfig

#: Version of the trace record schema; bump on incompatible record changes.
TRACE_SCHEMA = 1

#: Environment variable activating tracing for every run in the process
#: (a file path or a directory, like ``ExperimentConfig.trace``).
TRACE_ENV = "REPRO_TRACE"

#: Every record kind the schema knows.
RECORD_KINDS = (
    "header",
    "run_start",
    "sched",
    "ev",
    "queue",
    "hook",
    "run_end",
    "span",
    "cache",
)

#: File suffixes treated as literal trace *files* (anything else names a
#: directory that per-run files are created under).
FILE_SUFFIXES = (".jsonl", ".json", ".gz")


def _encode(record: Dict[str, Any]) -> str:
    """One record as its canonical line: sorted keys, no whitespace."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class NullSink:
    """A sink that discards everything (measuring tracer overhead)."""

    def write(self, record: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlSink:
    """Writes records as JSON lines to *path*."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        self._handle.write(_encode(record))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class GzipJsonlSink(JsonlSink):
    """The compact format: gzip-compressed JSON lines (suffix ``.gz``).

    ``mtime=0`` and an empty embedded filename pin the gzip header, keeping
    same-seed traces byte-identical through compression too (regardless of
    what the files are called or when they were written).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        raw = open(self.path, "wb")
        self._handle = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
        self._raw = raw

    def write(self, record: Dict[str, Any]) -> None:
        self._handle.write(_encode(record).encode("utf-8"))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._raw.close()
            self._handle = None


def open_sink(path: Union[str, Path]) -> JsonlSink:
    """A sink for *path*, picked by suffix (``.gz`` compresses)."""
    if str(path).endswith(".gz"):
        return GzipJsonlSink(path)
    return JsonlSink(path)


def _safe_name(text: str) -> str:
    """*text* reduced to file-name-safe characters."""
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in text)


def resolve_trace_path(
    target: Union[str, Path], config: Optional["ExperimentConfig"] = None
) -> Path:
    """The trace file a run should write, given the user's *target*.

    A *target* ending in a :data:`FILE_SUFFIXES` suffix is the file itself;
    anything else is a directory, and the file name is derived from the
    configuration (``<name>-<label>-seed<seed>.jsonl``) so a sweep's runs
    land in distinct files instead of overwriting each other.
    """
    target = Path(target)
    if target.suffix in FILE_SUFFIXES:
        return target
    if config is None:
        return target / "trace.jsonl"
    stem = _safe_name(f"{config.name}-{config.label}-seed{config.seed}")
    return target / f"{stem}.jsonl"


def _payload_from(event: Any) -> Dict[str, Any]:
    """The small, JSON-able payload of one typed scheduler event.

    Scalars travel as-is; jobs are reduced to their name (or id); anything
    else (execution records, KIS snapshots) is dropped — the payload exists
    to *identify* the event in a diff, not to serialise the scheduler.
    """
    payload: Dict[str, Any] = {}
    for field in dataclasses.fields(event):
        if field.name == "time":
            continue
        value = getattr(event, field.name)
        if value is None or isinstance(value, (str, int, float, bool)):
            payload[field.name] = value
            continue
        name = getattr(value, "name", None)
        if isinstance(name, str) and name:
            payload[field.name] = name
        elif getattr(value, "job_id", None) is not None:
            payload[field.name] = f"job-{value.job_id}"
    return payload


def payload_digest(payload: Dict[str, Any]) -> str:
    """Short deterministic digest of one hook payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


class Tracer:
    """Writes schema-versioned records to one sink.

    The first record is always the ``header`` (schema version plus whatever
    *meta* the creator supplies).  :attr:`write` is the sink's bound
    ``write`` — instrumentation hot paths call it directly, skipping a
    method dispatch per record.
    """

    def __init__(self, sink: Any, *, meta: Optional[Dict[str, Any]] = None) -> None:
        self.sink = sink
        self.write = sink.write
        header: Dict[str, Any] = {"k": "header", "schema": TRACE_SCHEMA}
        if meta:
            header.update(meta)
        self.write(header)

    def record(self, kind: str, **fields: Any) -> None:
        """Write one *kind* record carrying *fields*."""
        record: Dict[str, Any] = {"k": kind}
        record.update(fields)
        self.write(record)

    def record_hook(self, event: Any) -> None:
        """Trace one typed scheduler event going through the dispatcher."""
        from repro.policies.hooks import HOOK_METHODS

        method = HOOK_METHODS.get(type(event))
        name = method[3:] if method else type(event).__name__
        payload = _payload_from(event)
        record: Dict[str, Any] = {
            "k": "hook",
            "t": event.time,
            "e": name,
            "digest": payload_digest(payload),
        }
        record.update(payload)
        self.write(record)

    def close(self) -> None:
        self.sink.close()


# -- reading and validating ----------------------------------------------------


def read_trace(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield the records of one trace file (plain or gzip JSONL)."""
    path = Path(path)
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise ValueError(f"{path}:{number}: not a JSON record") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: record is not an object")
            yield record


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every record of one trace file, as a list."""
    return list(read_trace(path))


def validate_trace(records: List[Dict[str, Any]]) -> List[str]:
    """Schema-check *records*; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not records:
        return ["trace is empty (no header record)"]
    header = records[0]
    if header.get("k") != "header":
        problems.append(f"record 0: expected a header, got kind {header.get('k')!r}")
    elif header.get("schema") != TRACE_SCHEMA:
        problems.append(
            f"record 0: schema {header.get('schema')!r}, "
            f"this reader understands {TRACE_SCHEMA}"
        )
    for index, record in enumerate(records):
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
        kind = record.get("k")
        if kind not in RECORD_KINDS:
            problems.append(f"record {index}: unknown kind {kind!r}")
            continue
        if index and kind == "header":
            problems.append(f"record {index}: header after the first record")
        if kind in ("sched", "ev", "hook", "queue", "run_end"):
            if not isinstance(record.get("t"), (int, float)):
                problems.append(f"record {index}: {kind} record without a sim-time 't'")
        if kind in ("sched", "ev", "hook") and not isinstance(record.get("e"), str):
            problems.append(f"record {index}: {kind} record without an event name 'e'")
    return problems
