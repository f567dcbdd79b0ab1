"""Unit tests of the fault models and the ``fault:`` reference machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.models import (
    KIND_FAIL,
    KIND_REPAIR,
    FaultEvent,
    FaultRef,
    cluster_drain,
    cluster_outage,
    exponential_churn,
    fault_fingerprint,
    fault_reference_string,
    is_fault_reference,
    known_fault_models,
    parse_fault_trace,
    resolve_fault_model,
    trace_fault_model,
    weibull_churn,
)

CLUSTERS = {"alpha": 4, "beta": 2}


def take(iterator, count):
    return [next(iterator) for _ in range(count)]


# -- references ---------------------------------------------------------------


def test_reference_parse_and_canonical_round_trip():
    ref = FaultRef.parse("fault:exp?mttr=600&mtbf=3600")
    assert ref.model == "exp"
    assert ref.params == {"mtbf": 3600, "mttr": 600}
    # Canonical form sorts parameters, so equal references hash equally in
    # the result cache.
    assert ref.canonical() == "fault:exp?mtbf=3600&mttr=600"
    # The prefix is optional on input.
    assert FaultRef.parse("exp?mtbf=3600").canonical() == "fault:exp?mtbf=3600"


def test_reference_rejects_malformed_parameters():
    with pytest.raises(ValueError, match="malformed fault parameter"):
        FaultRef.parse("fault:exp?mtbf")
    with pytest.raises(ValueError, match="empty fault model"):
        FaultRef.parse("fault:?mtbf=1")


def test_unknown_model_lists_the_registered_ones():
    with pytest.raises(ValueError, match="exp"):
        resolve_fault_model("nope")


def test_validate_rejects_unknown_parameters_pointedly():
    with pytest.raises(ValueError, match="rejected parameters"):
        FaultRef.parse("fault:exp?mtfb=3600").validate()
    with pytest.raises(ValueError, match="must be positive"):
        FaultRef.parse("fault:exp?mtbf=-1").validate()


@pytest.mark.parametrize(
    "reference",
    [
        "fault:exp?mtbf=nan",
        "fault:exp?mtbf=3600&mttr=nan",
        "fault:exp?start=nan",
        "fault:weibull?mtbf=nan",
        "fault:weibull?shape=nan",
        "fault:outage?at=nan",
        "fault:outage?duration=nan",
        "fault:drain?duration=60&every=nan",
    ],
)
def test_validate_rejects_nan_parameters(reference):
    # Every check is written so that NaN fails it: a NaN time reaches the
    # kernel as a delay no run can pass.
    with pytest.raises(ValueError, match="must be"):
        FaultRef.parse(reference).validate()


def test_fault_reference_string_is_the_config_normaliser():
    assert (
        fault_reference_string("exp?mttr=60&mtbf=120")
        == "fault:exp?mtbf=120&mttr=60"
    )
    with pytest.raises(ValueError):
        fault_reference_string("fault:doesnotexist")


def test_retries_parameter():
    assert FaultRef.parse("fault:exp").retries() is None
    assert FaultRef.parse("fault:exp?retries=-1").retries() is None
    assert FaultRef.parse("fault:exp?retries=2").retries() == 2


def test_is_fault_reference():
    assert is_fault_reference("fault:exp")
    assert not is_fault_reference("trace:das3-synthetic")


def test_known_fault_models_cover_the_builtins():
    names = [name for name, _ in known_fault_models()]
    assert {"exp", "weibull", "outage", "drain", "trace"} <= set(names)


# -- churn models --------------------------------------------------------------


def test_exponential_churn_is_deterministic_and_time_ordered():
    first = take(
        exponential_churn(np.random.default_rng(7), CLUSTERS, mtbf=100, mttr=10), 40
    )
    second = take(
        exponential_churn(np.random.default_rng(7), CLUSTERS, mtbf=100, mttr=10), 40
    )
    assert first == second
    times = [event.time for event in first]
    assert times == sorted(times)
    assert all(event.processors == 1 for event in first)
    assert {event.cluster for event in first} <= set(CLUSTERS)


def test_churn_alternates_failures_and_repairs_in_balance():
    events = take(
        exponential_churn(np.random.default_rng(3), {"alpha": 1}, mtbf=50, mttr=5), 10
    )
    kinds = [event.kind for event in events]
    # A single node strictly alternates fail / repair.
    assert kinds == [KIND_FAIL, KIND_REPAIR] * 5


def test_churn_validates_parameters_eagerly():
    with pytest.raises(ValueError):
        exponential_churn(np.random.default_rng(0), CLUSTERS, mtbf=0)
    with pytest.raises(ValueError):
        weibull_churn(np.random.default_rng(0), CLUSTERS, shape=0)
    with pytest.raises(ValueError):
        weibull_churn(np.random.default_rng(0), CLUSTERS, start=-1)


def test_weibull_churn_mean_uptime_matches_mtbf():
    # One node: its fail/repair alternation exposes the uptime distribution
    # directly (uptime i = failure i+1 minus repair i).
    rng = np.random.default_rng(11)
    events = take(weibull_churn(rng, {"alpha": 1}, mtbf=1000.0, shape=1.5, mttr=1.0), 801)
    failures = [event.time for event in events if event.kind == KIND_FAIL]
    repairs = [event.time for event in events if event.kind == KIND_REPAIR]
    uptimes = [failures[0]] + [
        fail - repair for repair, fail in zip(repairs, failures[1:])
    ]
    assert 900.0 < float(np.mean(uptimes)) < 1100.0


# -- outages and drains ---------------------------------------------------------


def test_outage_fails_and_repairs_the_whole_cluster():
    events = list(
        cluster_outage(None, CLUSTERS, cluster="alpha", at=100, duration=50)
    )
    assert events == [
        FaultEvent(time=100, cluster="alpha", processors=4, kind=KIND_FAIL),
        FaultEvent(time=150, cluster="alpha", processors=4, kind=KIND_REPAIR),
    ]


def test_periodic_outage_repeats_every_period():
    events = take(
        cluster_outage(None, CLUSTERS, cluster="beta", at=10, duration=5, every=100), 6
    )
    fail_times = [event.time for event in events if event.kind == KIND_FAIL]
    assert fail_times == [10, 110, 210]


def test_outage_over_all_clusters_and_node_cap():
    events = list(cluster_outage(None, CLUSTERS, cluster="all", at=0, duration=1, nodes=3))
    fails = [event for event in events if event.kind == KIND_FAIL]
    assert {(event.cluster, event.processors) for event in fails} == {
        ("alpha", 3),
        ("beta", 2),  # capped at the cluster size
    }


def test_outage_rejects_unknown_cluster_and_bad_windows():
    with pytest.raises(ValueError, match="unknown cluster"):
        cluster_outage(None, CLUSTERS, cluster="gamma")
    with pytest.raises(ValueError):
        cluster_outage(None, CLUSTERS, cluster="alpha", duration=0)
    with pytest.raises(ValueError):
        cluster_outage(None, CLUSTERS, cluster="alpha", every=0)
    # Overlapping windows would yield a non-time-ordered stream: rejected.
    with pytest.raises(ValueError, match="overlapping"):
        cluster_outage(None, CLUSTERS, cluster="alpha", duration=3600, every=1800)


def test_drain_events_are_graceful():
    events = list(cluster_drain(None, CLUSTERS, cluster="alpha", at=5, duration=5))
    assert events[0].graceful and events[0].kind == KIND_FAIL
    assert not events[1].graceful and events[1].kind == KIND_REPAIR


# -- trace files -----------------------------------------------------------------


TRACE_TEXT = """
# maintenance schedule
100  alpha  down   2
150  alpha  up     2
50   beta   drain  1   # sorted on read
"""


def test_parse_fault_trace_sorts_and_understands_kinds():
    events = parse_fault_trace(TRACE_TEXT)
    assert [event.time for event in events] == [50, 100, 150]
    assert events[0].graceful and events[0].kind == KIND_FAIL
    assert events[1] == FaultEvent(time=100, cluster="alpha", processors=2)
    assert events[2].kind == KIND_REPAIR


def test_parse_fault_trace_reports_line_numbers():
    with pytest.raises(ValueError, match="<string>:1"):
        parse_fault_trace("10 alpha down")
    with pytest.raises(ValueError, match="unknown event kind"):
        parse_fault_trace("10 alpha explode 1")
    with pytest.raises(ValueError, match="malformed numbers"):
        parse_fault_trace("ten alpha down 1")


@pytest.mark.parametrize("time", ["-1", "nan"])
def test_parse_fault_trace_rejects_times_before_zero(time):
    # A NaN time used to pass, and the injector applied it at once.
    with pytest.raises(ValueError, match="fault event time must be >= 0"):
        parse_fault_trace(f"{time} alpha down 1")


def test_trace_model_checks_clusters_and_existence(tmp_path):
    path = tmp_path / "events.flt"
    path.write_text("10 gamma down 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown cluster 'gamma'"):
        trace_fault_model(None, CLUSTERS, path=str(path))
    with pytest.raises(ValueError, match="does not exist"):
        trace_fault_model(None, CLUSTERS, path=str(tmp_path / "missing.flt"))


def test_fault_fingerprint_tracks_trace_file_content(tmp_path):
    path = tmp_path / "events.flt"
    path.write_text("10 alpha down 1\n", encoding="utf-8")
    reference = f"fault:trace?path={path}"
    before = fault_fingerprint(reference)
    assert before is not None
    path.write_text("20 alpha down 2\n", encoding="utf-8")
    assert fault_fingerprint(reference) != before
    # Code-backed models need no fingerprint: the engine's code digest covers them.
    assert fault_fingerprint("fault:exp?mtbf=1") is None
