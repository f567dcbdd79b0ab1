"""Unit tests of the placement queue, the claim ledger and the information service."""

from __future__ import annotations

import pytest

from repro.koala import Job, PlacementQueue
from repro.koala.claiming import ClaimLedger
from repro.koala.kis import KoalaInformationService
from repro.cluster import Multicluster


# ---------------------------------------------------------------------------
# Placement queue
# ---------------------------------------------------------------------------


def make_job(ft, name):
    return Job.malleable(ft, name=name)


def test_queue_is_fifo_and_tracks_membership(ft):
    queue = PlacementQueue()
    a, b = make_job(ft, "a"), make_job(ft, "b")
    queue.enqueue(a, time=0.0)
    queue.enqueue(b, time=1.0)
    assert len(queue) == 2 and bool(queue)
    assert queue.jobs == [a, b]
    assert queue.head.job is a
    assert a in queue and b in queue
    queue.remove(a)
    assert queue.jobs == [b]
    with pytest.raises(ValueError):
        queue.remove(a)


def test_queue_rejects_duplicate_enqueue(ft):
    queue = PlacementQueue()
    job = make_job(ft, "dup")
    queue.enqueue(job, time=0.0)
    with pytest.raises(ValueError):
        queue.enqueue(job, time=1.0)


def test_queue_failure_counting_and_abandonment(ft):
    queue = PlacementQueue(max_tries=3)
    job = make_job(ft, "flaky")
    queue.enqueue(job, time=0.0)
    assert queue.record_failure(job, "no room") is False
    assert queue.record_failure(job, "no room") is False
    assert job.placement_tries == 2
    # Third failure exhausts the retries and removes the job.
    assert queue.record_failure(job, "no room") is True
    assert job not in queue


def test_queue_unlimited_retries_by_default(ft):
    queue = PlacementQueue()
    job = make_job(ft, "persistent")
    queue.enqueue(job, time=0.0)
    for _ in range(50):
        assert queue.record_failure(job) is False
    assert job in queue


def test_requeue_at_tail(ft):
    queue = PlacementQueue()
    a, b = make_job(ft, "a"), make_job(ft, "b")
    queue.enqueue(a, time=0.0)
    queue.enqueue(b, time=1.0)
    queue.requeue_at_tail(a)
    assert queue.jobs == [b, a]
    with pytest.raises(ValueError):
        queue.requeue_at_tail(make_job(ft, "stranger"))


# ---------------------------------------------------------------------------
# Claim ledger
# ---------------------------------------------------------------------------


def test_ledger_tracks_pending_claims_per_cluster():
    ledger = ClaimLedger()
    claim_a = ledger.reserve("delft", 8, owner="job-a")
    ledger.reserve("delft", 2, owner="job-b")
    ledger.reserve("vu", 4, owner="job-c")
    assert ledger.pending_on("delft") == 10
    assert ledger.pending_on("vu") == 4
    assert ledger.pending_total() == 14
    assert len(ledger) == 3
    assert ledger.owners_on("delft") == {"job-a": 8, "job-b": 2}
    ledger.settle(claim_a)
    assert ledger.pending_on("delft") == 2
    ledger.settle(claim_a)  # settling twice is harmless


def test_ledger_effective_idle_never_negative():
    ledger = ClaimLedger()
    ledger.reserve("delft", 20, owner="huge")
    effective = ledger.effective_idle({"delft": 5, "vu": 7})
    assert effective == {"delft": 0, "vu": 7}
    assert ledger.effective_idle_in("delft", 5) == 0


def test_ledger_adjust_and_validation():
    ledger = ClaimLedger()
    with pytest.raises(ValueError):
        ledger.reserve("delft", 0, owner="zero")
    claim = ledger.reserve("delft", 6, owner="job")
    ledger.adjust(claim, 3)
    assert ledger.pending_on("delft") == 3
    ledger.adjust(claim, 0)  # adjusting to zero settles the claim
    assert ledger.pending_on("delft") == 0


# ---------------------------------------------------------------------------
# KOALA information service
# ---------------------------------------------------------------------------


def test_kis_snapshot_refreshes_on_poll(env, streams):
    system = Multicluster(env, streams=streams)
    cluster = system.add_cluster("a", 16)
    kis = KoalaInformationService(env, system, poll_interval=10.0)
    assert kis.idle_in("a") == 16

    env.timeout(5).callbacks.append(lambda _event: cluster.allocate(6, owner="job"))
    env.run(until=6)
    # The snapshot is stale until the next poll, the fresh view is not.
    assert kis.idle_in("a") == 16
    assert kis.idle_in("a", fresh=True) == 10
    env.run(until=11)
    assert kis.idle_in("a") == 10
    assert kis.snapshot.total_idle() == 10


def test_kis_poll_callbacks_and_forced_poll(env, streams):
    system = Multicluster(env, streams=streams)
    system.add_cluster("a", 8)
    kis = KoalaInformationService(env, system, poll_interval=20.0)
    polls = []
    kis.on_poll(lambda snapshot: polls.append(snapshot.time))
    env.run(until=65)
    assert polls == [20.0, 40.0, 60.0]
    kis.poll_now()
    assert polls[-1] == 65.0


def test_kis_providers(env, streams):
    system = Multicluster(env, streams=streams)
    system.add_cluster("a", 8)
    system.add_cluster("b", 4)
    system.register_replica("data.h5", "b")
    kis = KoalaInformationService(env, system)
    assert kis.pip.total_processors() == {"a": 8, "b": 4}
    assert kis.rls.sites("data.h5") == {"b"}
    kis.rls.register("data.h5", "a")
    assert kis.rls.sites("data.h5") == {"a", "b"}
    assert kis.nip.transfer_time("a", "b", 100) > 0
    with pytest.raises(ValueError):
        KoalaInformationService(env, system, poll_interval=0)
