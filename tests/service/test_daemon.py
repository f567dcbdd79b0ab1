"""End-to-end tests of the experiment daemon over its Unix socket.

Two rigs (see ``conftest``): the *real* rig runs genuine simulations on a
process pool and proves byte identity with the standalone engine; the
*gated* rig swaps in a fake runner that blocks until the test opens a gate,
which pins jobs in their queued/running states long enough to observe
coalescing, cancellation and timeouts deterministically.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import threading
import time

import pytest

from _helpers import FailRunner, GateRunner, tiny_config
from repro.experiments.engine import config_key, result_to_record
from repro.experiments.setup import run_experiment
from repro.metrics import collector
from repro.metrics.collector import ExperimentMetrics
from repro.service import ResultStore, ServiceError
from repro.service import protocol


def wait_for(predicate, *, timeout=10.0, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(interval)


# -- byte identity with the standalone engine (real simulations) --------------


def test_daemon_result_is_byte_identical_to_run_experiment(daemon):
    config = tiny_config(name="identity")
    handle = daemon(workers=2)
    with handle.client() as client:
        response = client.run_and_wait(
            config, timeout=300, response_format="detailed"
        )
    local = result_to_record(run_experiment(config))
    assert response["ok"] is True
    assert response["key"] == config_key(config)
    # The whole record — config, metrics, horizon — is byte-identical.
    assert json.dumps(response["record"], sort_keys=True) == (
        json.dumps(local, sort_keys=True)
    )
    assert response["digest"] == protocol.metrics_digest(local)
    # The daemon persisted the record in the store, under the same envelope
    # the engine's own cache writes.
    stored = handle.service.store.get(config_key(config))
    assert stored == local


def test_eight_concurrent_submits_execute_exactly_once(daemon):
    # The acceptance criterion: 8 clients racing the same config produce
    # exactly one worker execution and eight identical responses.
    config = tiny_config(name="stampede")
    handle = daemon(workers=2)
    responses = [None] * 8
    errors = []

    def submit(slot: int) -> None:
        try:
            with handle.client() as client:
                responses[slot] = client.run_and_wait(
                    config, timeout=300, response_format="detailed"
                )
        except Exception as error:  # surfaced below, with the slot
            errors.append((slot, error))

    threads = [threading.Thread(target=submit, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, f"client threads failed: {errors}"
    assert all(response is not None and response["ok"] for response in responses)
    digests = {response["digest"] for response in responses}
    records = {json.dumps(response["record"], sort_keys=True) for response in responses}
    assert len(digests) == 1 and len(records) == 1  # eight identical answers
    with handle.client() as client:
        status = client.status()
    assert status["executions"] == 1  # exactly one worker run
    assert status["store"]["entries"] == 1


def test_restarted_daemon_serves_results_from_the_store(daemon, tmp_path):
    config = tiny_config(name="restart")
    store_dir = tmp_path / "shared-store"
    first = daemon(store=ResultStore(store_dir), tag="first")
    with first.client() as client:
        before = client.run_and_wait(config, timeout=300, response_format="detailed")
    first.stop()

    # A brand-new daemon (fresh job table) finds the result on disk: no
    # worker ever runs.
    second = daemon(store=ResultStore(store_dir), tag="second")
    with second.client() as client:
        after = client.run_and_wait(config, timeout=30, response_format="detailed")
        status = client.status()
    assert after["via"] == "store"
    assert after["source"] == "store"
    assert after["record"] == before["record"]
    assert status["executions"] == 0
    assert status["store_served"] == 1


# -- coalescing, observed deterministically (gated fake runner) ---------------


def test_concurrent_submits_coalesce_onto_one_run(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    handle = daemon(runner=runner, workers=2)
    config = tiny_config(name="coalesce")
    responses = [None] * 8

    def submit(slot: int) -> None:
        with handle.client() as client:
            responses[slot] = client.run_and_wait(
                config, timeout=None, response_format="detailed"
            )

    threads = [threading.Thread(target=submit, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    # The gate holds the one spawned worker mid-"simulation", so all eight
    # submissions are in flight together: exactly one spawned, seven
    # attached — no timing luck involved.
    with handle.client() as client:
        wait_for(
            lambda: client.status()["coalesced"] == 7,
            message="8 submissions to coalesce",
        )
        status = client.status()
    assert status["jobs"]["running"] + status["jobs"]["queued"] == 1
    assert len(runner.calls) == 1
    runner.gate.set()
    for thread in threads:
        thread.join(timeout=60)
    vias = sorted(response["via"] for response in responses)
    assert vias == ["attached"] * 7 + ["spawned"]
    assert {response["digest"] for response in responses} == {
        protocol.metrics_digest(tiny_record)
    }
    assert sum(response["coalesced"] for response in responses) == 7
    with handle.client() as client:
        assert client.status()["executions"] == 1


def test_submit_after_completion_is_served_from_the_session(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    runner.gate.set()  # no holding: runs complete immediately
    handle = daemon(runner=runner, workers=2)
    config = tiny_config(name="session-hit")
    with handle.client() as client:
        first = client.run_and_wait(config, timeout=30)
        second = client.submit(config)
        assert first["via"] == "spawned"
        assert second["via"] == "session"
        assert second["state"] == "done"
        assert second["digest"] == first["digest"]
        assert client.status()["executions"] == 1


# -- cancellation -------------------------------------------------------------


def test_cancel_queued_job_works_and_running_job_is_refused(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    handle = daemon(runner=runner, workers=1)  # one slot: the 2nd job queues
    running_config = tiny_config(name="occupier")
    queued_config = tiny_config(name="waiter")
    with handle.client() as client:
        running = client.submit(running_config)
        wait_for(
            lambda: client.status()["jobs"]["running"] == 1,
            message="first job to start",
        )
        queued = client.submit(queued_config)
        assert queued["state"] == "queued"

        # A queued job cancels immediately; its slot is never consumed.
        cancelled = client.cancel(queued["key"])
        assert cancelled["cancelled"] is True
        assert cancelled["state"] == "cancelled"
        got = client.get(queued["key"])
        assert got["state"] == "cancelled"

        # A running job is never killed: cancel reports the refusal.
        refused = client.cancel(running["key"])
        assert refused["cancelled"] is False
        assert refused["state"] == "running"

        # A cancelled config is resubmittable — it spawns a fresh run.
        runner.gate.set()
        resubmitted = client.run_and_wait(queued_config, timeout=60)
        assert resubmitted["via"] == "spawned"
        assert resubmitted["state"] == "done"
        finished = client.run_and_wait(running_config, timeout=60)
        assert finished["state"] == "done"
        assert client.status()["executions"] == 2  # occupier + resubmit


def test_pipelined_submit_cancel_settles_a_never_started_task(daemon, tiny_record):
    # Submit and cancel sent back-to-back on one connection: both lines land
    # in the daemon's read buffer together, so the cancel is dispatched
    # before the job's task gets its first event-loop step.  Cancelling a
    # never-started coroutine skips _run_job entirely (its finally never
    # runs) — the daemon must settle the job itself instead of waiting
    # forever on job.done and leaving a zombie 'queued' table entry.
    runner = GateRunner(tiny_record)
    handle = daemon(runner=runner, workers=1)
    occupier = tiny_config(name="occupier")
    victim = tiny_config(name="drive-by")
    with handle.client() as client:
        client.submit(occupier)  # pins the only slot: the victim stays queued
        wait_for(
            lambda: client.status()["jobs"]["running"] == 1,
            message="occupier to start",
        )
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)  # without the fix, the cancel response never comes
    sock.connect(str(handle.socket_path))
    reader = sock.makefile("rb")
    try:
        sock.sendall(
            protocol.encode({"op": "submit", "config": victim.to_dict()})
            + protocol.encode({"op": "cancel", "key": config_key(victim)})
        )
        submitted = json.loads(reader.readline())
        cancelled = json.loads(reader.readline())
    finally:
        reader.close()
        sock.close()
    assert submitted["ok"] is True and submitted["state"] == "queued"
    assert cancelled["ok"] is True
    assert cancelled["cancelled"] is True and cancelled["state"] == "cancelled"
    runner.gate.set()
    with handle.client() as client:
        # No zombie entry: the table shows the cancellation, and the config
        # is resubmittable instead of coalescing onto a dead job.
        assert client.get(config_key(victim))["state"] == "cancelled"
        done = client.run_and_wait(victim, timeout=60)
        assert done["via"] == "spawned" and done["state"] == "done"


def test_cancel_unknown_key_is_not_found(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    runner.gate.set()
    handle = daemon(runner=runner)
    with handle.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("0" * 64)
        assert excinfo.value.code == "not_found"


# -- timeouts and failures ----------------------------------------------------


def test_run_and_wait_timeout_then_late_attach_succeeds(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    handle = daemon(runner=runner, workers=1)
    config = tiny_config(name="slowpoke")
    with handle.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.run_and_wait(config, timeout=0.2)
        assert excinfo.value.code == "timeout"
        assert excinfo.value.response["state"] in ("queued", "running")
        # The job survived the client timeout; a later wait attaches to it.
        runner.gate.set()
        response = client.run_and_wait(config, timeout=60)
        assert response["state"] == "done"
        assert client.status()["executions"] == 1


def test_client_reconnects_after_a_transport_timeout(daemon, tiny_record):
    # A socket that timed out refuses every later read; the client must drop
    # it, or every later request on the same client fails too.
    runner = GateRunner(tiny_record)
    handle = daemon(runner=runner, workers=1)
    config = tiny_config(name="wedge")
    with handle.client() as client:
        with pytest.raises(OSError):
            client.request(
                "run_and_wait", transport_timeout=0.2, config=config.to_dict()
            )
        runner.gate.set()
        assert client.status()["op"] == "status"


def test_failed_connect_closes_its_socket(tmp_path):
    # wait_until_ready polls connect() while a daemon starts, so a socket
    # left open per failed attempt would leak one per poll.
    import gc
    import warnings

    from repro.service import ServiceClient

    client = ServiceClient(socket_path=tmp_path / "nobody-home.sock")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError):
            client.connect()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert client._sock is None


def test_failed_store_write_keeps_the_finished_job(daemon, tiny_record, tmp_path, monkeypatch):
    runner = GateRunner(tiny_record)
    runner.gate.set()
    store = ResultStore(tmp_path / "full-store")

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(store, "put", no_space)
    handle = daemon(store=store, runner=runner)
    config = tiny_config(name="disk-full")
    with handle.client() as client:
        # The simulation succeeded: the result is served from memory.
        first = client.run_and_wait(config, timeout=30)
        assert first["via"] == "spawned" and first["state"] == "done"
        second = client.run_and_wait(config, timeout=30, response_format="detailed")
        assert second["via"] == "session"
        assert second["digest"] == first["digest"]
        assert second["record"]["metrics"] == tiny_record["metrics"]
        assert client.status()["executions"] == 1


def test_failed_run_is_reported_and_resubmittable(daemon):
    handle = daemon(runner=FailRunner(), workers=1)
    config = tiny_config(name="doomed")
    with handle.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.run_and_wait(config, timeout=60)
        assert excinfo.value.code == "execution_failed"
        assert "simulated worker failure" in str(excinfo.value)
        got = client.get(config_key(config))
        assert got["state"] == "failed"
        assert "ValueError" in got["error"]
        # Failures are not cached: the store stays empty and a resubmit
        # spawns (and fails) again.
        status = client.status()
        assert status["store"]["entries"] == 0
        assert status["executions"] == 1
        with pytest.raises(ServiceError):
            client.run_and_wait(config, timeout=60)
        assert client.status()["executions"] == 2


# -- batch, get, list ---------------------------------------------------------


def test_batch_submits_and_deduplicates_in_one_round_trip(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    handle = daemon(runner=runner, workers=2)
    config_a = tiny_config(name="batch", seed=0)
    config_b = tiny_config(name="batch", seed=1)
    with handle.client() as client:
        response = client.batch([config_a, config_b, config_a])
        assert response["count"] == 3
        vias = [job["via"] for job in response["jobs"]]
        assert vias == ["spawned", "spawned", "attached"]  # 3rd is a duplicate
        assert response["jobs"][0]["key"] == response["jobs"][2]["key"]
        runner.gate.set()
        done = client.run_and_wait(config_b, timeout=60)
        assert done["state"] == "done"
        wait_for(
            lambda: client.status()["jobs"]["done"] == 2,
            message="both batch jobs to finish",
        )
        listing = client.list(response_format="detailed")
    assert [entry["name"] for entry in listing] == ["batch", "batch"]
    assert all(entry["digest"] for entry in listing)
    assert [entry["config"]["seed"] for entry in listing] == [0, 1]
    assert len(runner.calls) == 2


def test_get_reaches_store_records_without_a_job_entry(daemon, tiny_record):
    handle = daemon(runner=GateRunner(tiny_record))
    handle.service.store.put("f" * 64, tiny_record, head=protocol.result_head(tiny_record))
    with handle.client() as client:
        response = client.get("f" * 64, response_format="detailed")
        assert response["source"] == "store"
        assert response["record"] == tiny_record
        with pytest.raises(ServiceError) as excinfo:
            client.get("0" * 64)
        assert excinfo.value.code == "not_found"
        # Lookup by config works too (key is derived daemon-side).
        with pytest.raises(ServiceError):
            client.get(config=tiny_config(name="never-submitted"))


# -- store-served entries hold the head alone ---------------------------------


def _store_result(store, config, record, *, head=True):
    """Put *record* under *config*'s key, with its head unless told not to."""
    key = config_key(config)
    store.put(key, record, head=protocol.result_head(record) if head else None)
    return key


def test_concise_store_hit_keeps_no_record_and_detailed_replies_read_it(
    daemon, tiny_record
):
    handle = daemon(runner=GateRunner(tiny_record))
    config = tiny_config(name="head-hit")
    record = dict(tiny_record, config=config.to_dict())
    key = _store_result(handle.service.store, config, record)
    with handle.client() as client:
        concise = client.run_and_wait(config, timeout=30)
        assert concise["via"] == "store"
        assert concise["digest"] == protocol.metrics_digest(record)
        entry = handle.service.jobs[key]
        assert entry.record is None
        assert entry.head == protocol.result_head(record)
        got = client.get(key, response_format="detailed")
        assert got["record"] == record and got["digest"] == concise["digest"]
        waited = client.run_and_wait(config, timeout=30, response_format="detailed")
        assert waited["via"] == "session" and waited["record"] == record
        assert entry.record is None  # read for the replies, never kept
        assert client.status()["executions"] == 0


@pytest.mark.parametrize("op", ["get", "run_and_wait"])
def test_detailed_reply_after_the_store_lost_the_record_is_not_found(
    daemon, tiny_record, op
):
    runner = GateRunner(tiny_record)
    runner.gate.set()
    handle = daemon(runner=runner)
    config = tiny_config(name="evicted")
    key = _store_result(
        handle.service.store, config, dict(tiny_record, config=config.to_dict())
    )
    with handle.client() as client:
        assert client.run_and_wait(config, timeout=30)["via"] == "store"
        assert handle.service.store.delete(key)
        with pytest.raises(ServiceError) as excinfo:
            if op == "get":
                client.get(key, response_format="detailed")
            else:
                client.run_and_wait(config, timeout=30, response_format="detailed")
        assert excinfo.value.code == "not_found"
        assert key not in handle.service.jobs  # the entry was dropped
        again = client.run_and_wait(config, timeout=30)
        assert again["via"] == "spawned"
        assert client.status()["executions"] == 1


def test_store_served_replies_recompute_no_digest_or_summary(
    daemon, tiny_record, monkeypatch
):
    handle = daemon(runner=GateRunner(tiny_record))
    config = tiny_config(name="no-recompute")
    record = dict(tiny_record, config=config.to_dict())
    key = _store_result(handle.service.store, config, record)
    other = _store_result(handle.service.store, tiny_config(name="never-submitted"), record)
    digest = protocol.metrics_digest(record)

    def forbidden(*args, **kwargs):
        raise AssertionError("a store-served reply recomputed its digest or summary")

    # protocol imports the collector's digest helper when it runs.
    monkeypatch.setattr(collector, "run_digest", forbidden)
    monkeypatch.setattr(ExperimentMetrics, "from_dict", forbidden)
    monkeypatch.setattr(ExperimentMetrics, "summary", forbidden)
    with handle.client() as client:
        for fmt in ("concise", "detailed"):
            assert client.run_and_wait(config, timeout=30, response_format=fmt)["digest"] == digest
            assert client.get(key, response_format=fmt)["digest"] == digest
            assert client.get(other, response_format=fmt)["digest"] == digest
        assert [job["digest"] for job in client.list(response_format="detailed")] == [digest]


def test_record_stored_without_a_head_is_run_again_and_rewritten(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    runner.gate.set()
    handle = daemon(runner=runner)
    config = tiny_config(name="headless")
    record = dict(tiny_record, config=config.to_dict())
    key = _store_result(handle.service.store, config, record, head=False)
    with handle.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.get(key)
        assert excinfo.value.code == "not_found"
        response = client.run_and_wait(config, timeout=30)
        assert response["via"] == "spawned"
        assert client.status()["executions"] == 1
    assert handle.service.store.head(key) == protocol.result_head(record)


# -- protocol robustness ------------------------------------------------------


def test_malformed_requests_get_errors_and_the_daemon_survives(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    runner.gate.set()
    handle = daemon(runner=runner)

    with handle.client() as client:
        # Unknown operation.
        with pytest.raises(ServiceError) as excinfo:
            client.request("frobnicate")
        assert excinfo.value.code == "unknown_op"
        # Config that fails ExperimentConfig validation, at submit time.
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"workload": "Wm", "placement_policy": "NOPE"})
        assert excinfo.value.code == "bad_config"
        assert "SJF" in str(excinfo.value)  # the registered names are listed
        # A NaN time limit (JSON allows it) would hold a worker forever.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(tiny_config().to_dict(), time_limit=float("nan")))
        assert excinfo.value.code == "bad_config"
        assert "time_limit must be > 0" in str(excinfo.value)
        # A NaN poll interval used to be accepted, then kill its worker
        # mid-run; every numeric field is range-checked at submit time now.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(tiny_config().to_dict(), poll_interval=float("nan")))
        assert excinfo.value.code == "bad_config"
        assert "poll_interval must be finite and > 0" in str(excinfo.value)
        # Non-mapping config.
        with pytest.raises(ServiceError) as excinfo:
            client.request("submit", config=[1, 2])
        assert excinfo.value.code == "bad_config"
        # Unknown response_format: a client error, not an internal one.
        with pytest.raises(ServiceError) as excinfo:
            client.request("list", response_format="verbose")
        assert excinfo.value.code == "bad_request"
        assert "verbose" in str(excinfo.value)
        # Non-numeric timeout: rejected before any work is spawned.
        executions = client.status()["executions"]
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "run_and_wait",
                config=tiny_config(name="never-runs").to_dict(),
                timeout="soon",
            )
        assert excinfo.value.code == "bad_request"
        assert "timeout" in str(excinfo.value)
        assert client.status()["executions"] == executions

    # Raw garbage on the wire: one error line per bad line, connection and
    # daemon both stay up.
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(str(handle.socket_path))
    reader = sock.makefile("rb")
    try:
        sock.sendall(b"this is not json\n")
        error = json.loads(reader.readline())
        assert error["ok"] is False and error["error"]["code"] == "bad_request"
        sock.sendall(b"[1, 2, 3]\n")
        error = json.loads(reader.readline())
        assert error["ok"] is False and error["error"]["code"] == "bad_request"
        # The same connection still serves real requests afterwards.
        sock.sendall(protocol.encode({"op": "status", "id": "after-garbage"}))
        response = json.loads(reader.readline())
        assert response["ok"] is True
        assert response["id"] == "after-garbage"  # ids echo back verbatim
    finally:
        reader.close()
        sock.close()

    with handle.client() as client:
        assert client.status()["ok"] is True


def test_request_ids_are_echoed_through_the_client(daemon, tiny_record):
    runner = GateRunner(tiny_record)
    runner.gate.set()
    handle = daemon(runner=runner)
    with handle.client() as client:
        response = client.request("status", id=41)
        assert response["id"] == 41
