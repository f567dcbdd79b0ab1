"""Tests of the wire protocol: framing, formats, digests, payloads."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.engine import ResultCache, config_key, result_to_record
from repro.experiments.scenarios import get_scenario
from repro.experiments.setup import run_experiment
from repro.metrics.collector import ExperimentMetrics
from repro.service import protocol


def test_encode_decode_round_trip():
    message = {"op": "status", "id": 7}
    line = protocol.encode(message)
    assert line.endswith(b"\n")
    assert line.count(b"\n") == 1  # one message, one line
    assert protocol.decode(line) == message


def test_encode_is_canonical():
    assert protocol.encode({"b": 1, "a": 2}) == protocol.encode({"a": 2, "b": 1})


@pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b'"text"\n'])
def test_decode_rejects_non_object_lines(line):
    with pytest.raises(ValueError):
        protocol.decode(line)


def test_response_format_defaults_and_validates():
    assert protocol.response_format({}) == "concise"
    assert protocol.response_format({"response_format": "detailed"}) == "detailed"
    with pytest.raises(ValueError, match="response_format"):
        protocol.response_format({"response_format": "verbose"})


def test_response_shapes():
    ok = protocol.ok_response("status", uptime=1.0)
    assert ok == {"ok": True, "op": "status", "uptime": 1.0}
    bad = protocol.error_response("get", "not_found", "nope", key="k")
    assert bad["ok"] is False
    assert bad["error"] == {"code": "not_found", "message": "nope"}
    assert bad["key"] == "k"


def test_metrics_digest_is_canonical_sha256(tiny_record):
    expected = hashlib.sha256(
        json.dumps(tiny_record["metrics"], sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert protocol.metrics_digest(tiny_record) == expected
    # Any metrics change moves the digest.
    mutated = dict(tiny_record, metrics=dict(tiny_record["metrics"], unfinished_jobs=9))
    assert protocol.metrics_digest(mutated) != expected


def test_result_payload_concise_vs_detailed(tiny_record):
    head = protocol.result_head(tiny_record)
    concise = protocol.result_payload(head, "concise")
    assert concise["digest"] == protocol.metrics_digest(tiny_record)
    assert concise["simulated_time"] == tiny_record["simulated_time"]
    assert concise["truncated"] is False
    assert "record" not in concise
    assert set(concise["metrics"]) <= set(protocol.CONCISE_METRIC_KEYS)
    assert concise["metrics"]["jobs"] == 2.0

    detailed = protocol.result_payload(head, "detailed", tiny_record)
    assert detailed["record"] == tiny_record  # the full cache wire format
    assert detailed["digest"] == concise["digest"]
    assert "metrics" not in detailed  # the record already carries everything


# -- replies built from a stored head -----------------------------------------

#: The scenarios whose 60-job records the daemon serves in the benchmark mix.
HEAD_SCENARIOS = ("figure7", "figure8", "churn-replay", "trace-replay")


def _payload_from_record(record, fmt):
    """A reply built from the record alone: digest and summary recomputed."""
    payload = {
        "digest": protocol.metrics_digest(record),
        "simulated_time": record.get("simulated_time"),
        "truncated": record.get("truncated", False),
    }
    if fmt == "detailed":
        payload["record"] = record
        return payload
    summary = ExperimentMetrics.from_dict(record["metrics"]).summary()
    payload["metrics"] = {
        key: summary[key] for key in protocol.CONCISE_METRIC_KEYS if key in summary
    }
    return payload


@pytest.fixture(scope="module")
def scenario_results():
    """One genuine 60-job result of the first variant of each scenario."""
    results = {}
    for name in HEAD_SCENARIOS:
        _, config = get_scenario(name).expand(job_count=60, seed=0)[0]
        results[name] = run_experiment(config)
    return results


@pytest.mark.parametrize("scenario", HEAD_SCENARIOS)
def test_replies_from_the_stored_head_match_replies_from_the_record(
    tmp_path, scenario_results, scenario
):
    result = scenario_results[scenario]
    cache = ResultCache(tmp_path / "store")
    cache.store(result)
    key = config_key(result.config)
    head = cache.backend.head(key)
    stored = cache.backend.get(key)
    record = result_to_record(result)
    assert protocol.encode(protocol.result_payload(head, "concise")) == protocol.encode(
        _payload_from_record(record, "concise")
    )
    assert protocol.encode(
        protocol.result_payload(head, "detailed", stored)
    ) == protocol.encode(_payload_from_record(record, "detailed"))
