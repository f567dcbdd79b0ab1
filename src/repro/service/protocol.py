"""The wire protocol of the experiment service.

Newline-delimited JSON over a local stream socket: each request is one JSON
object on one line, each response is one JSON object on one line, strictly
in request order per connection.  The protocol is deliberately boring — any
language with a socket and a JSON parser is a client.

Requests
--------
``{"op": <operation>, ...operation fields...}`` with these operations:

=============== ==========================================================
``submit``      ``config``: experiment-config mapping.  Deduplicates
                against the store and against in-flight runs (coalescing).
``get``         ``key`` (or ``config``): look one result up.
``list``        All jobs this daemon knows about.
``cancel``      ``key``: cancel a queued job (running jobs report
                ``cancelled: false`` — workers are never killed mid-run).
``batch``       ``configs``: list of configs; one submit response each.
``run_and_wait``  ``config`` (+ optional ``timeout`` seconds): submit, then
                respond only when the result is ready.
``status``      Pool, queue and store statistics.
``metrics``     Full metrics snapshots: daemon counters and per-operation
                latency histograms, store counters, process registry.
``shutdown``    Stop the daemon after responding.
=============== ==========================================================

Every read operation accepts ``"response_format": "concise" | "detailed"``
(default concise).  Concise responses carry the result digest, wall time
and headline metrics; detailed responses embed the full result record (the
exact cache wire format, byte-identical to a standalone ``repro-cli`` run).

Result heads
------------
The fields of a concise reply are fixed when a result is written, so they
are computed once, by :func:`result_head`, and stored with the record (the
first line of its store file, see :mod:`repro.service.store`).  A *head*
holds the ``digest``, ``simulated_time``, ``truncated`` flag and concise
``metrics``; :func:`result_payload` builds every reply from it — the head
itself when concise, the head without ``metrics`` plus the record when
detailed — so a concise store hit recomputes nothing and never parses the
record.

Responses
---------
``{"ok": true, "op": ..., ...}`` or
``{"ok": false, "op": ..., "error": {"code": ..., "message": ...}}``.  A
request's ``"id"`` field, when present, is echoed back verbatim so clients
may correlate pipelined requests.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Protocol revision, reported by ``status`` and checked by nobody yet:
#: clients are expected to tolerate unknown response fields.
PROTOCOL_VERSION = 1

#: Operations the daemon understands.
OPERATIONS = (
    "submit",
    "get",
    "list",
    "cancel",
    "batch",
    "run_and_wait",
    "checkpointed",
    "status",
    "metrics",
    "shutdown",
)

#: Recognised ``response_format`` values.
RESPONSE_FORMATS = ("concise", "detailed")

#: Summary statistics a concise response carries; the full summary (and the
#: per-job records) remain available via ``response_format: detailed``.
CONCISE_METRIC_KEYS = (
    "jobs",
    "unfinished",
    "mean_execution_time",
    "mean_response_time",
    "mean_average_allocation",
    "peak_utilization",
    "grow_messages",
    "shrink_messages",
)


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol message as one newline-terminated JSON line."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raises :class:`ValueError` on garbage."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


def error_response(
    op: Optional[str], code: str, message: str, **extra: Any
) -> Dict[str, Any]:
    """A failure response: ``ok: false`` plus a machine-readable code."""
    response: Dict[str, Any] = {
        "ok": False,
        "op": op,
        "error": {"code": code, "message": message},
    }
    response.update(extra)
    return response


def ok_response(op: str, **fields: Any) -> Dict[str, Any]:
    """A success response carrying *fields*."""
    response: Dict[str, Any] = {"ok": True, "op": op}
    response.update(fields)
    return response


def response_format(request: Dict[str, Any]) -> str:
    """The validated ``response_format`` of *request* (default concise)."""
    value = request.get("response_format", "concise")
    if value not in RESPONSE_FORMATS:
        raise ValueError(
            f"unknown response_format {value!r}; expected one of {RESPONSE_FORMATS}"
        )
    return value


def metrics_digest(record: Dict[str, Any]) -> str:
    """The service's result identity: the record's per-run metrics digest.

    :func:`repro.metrics.collector.run_digest` of the record's metrics, so a
    daemon result and a standalone ``repro-cli run`` of the same
    configuration digest identically exactly when they simulated the same
    outcomes.  Imported here, not at module level: the collector needs
    numpy, and a client never digests anything.
    """
    from repro.metrics.collector import run_digest

    return run_digest(record["metrics"])


def result_head(record: Dict[str, Any]) -> Dict[str, Any]:
    """The head of one finished result record: its concise reply fields.

    Digest (:func:`metrics_digest`), simulated time, truncation flag and
    the headline summary statistics (:data:`CONCISE_METRIC_KEYS`).  Every
    result writer computes this once and stores it with the record.
    """
    from repro.metrics.collector import ExperimentMetrics

    summary = ExperimentMetrics.from_dict(record["metrics"]).summary()
    return {
        "digest": metrics_digest(record),
        "simulated_time": record.get("simulated_time"),
        "truncated": record.get("truncated", False),
        "metrics": {key: summary[key] for key in CONCISE_METRIC_KEYS if key in summary},
    }


def result_payload(
    head: Dict[str, Any], fmt: str, record: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The response fields describing one finished result, from its head.

    Concise: the head (:func:`result_head`).  Detailed: the head without
    its ``metrics`` plus the complete *record* — config, per-job metrics,
    everything the cache stores, which already carries the summary.
    """
    if fmt != "detailed":
        return dict(head)
    payload = {key: value for key, value in head.items() if key != "metrics"}
    payload["record"] = record
    return payload
