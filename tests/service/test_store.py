"""Tests of the content-addressed result store (and the cache over it)."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.engine import ResultCache, config_key, run_configs
from repro.service.store import (
    SCHEMA_VERSION,
    FileLock,
    ResultStore,
    parse_size,
)
from _helpers import tiny_config

try:
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only test environment
    fcntl = None


RECORD = {"metrics": {"x": 1}, "simulated_time": 2.0}


# -- parse_size ---------------------------------------------------------------


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        (None, None),
        ("", None),
        ("   ", None),
        (4096, 4096),
        (4096.9, 4096),
        ("4096", 4096),
        ("1K", 1024),
        ("1.5K", 1536),
        ("512M", 512 << 20),
        ("2G", 2 << 30),
        ("1T", 1 << 40),
        ("10MB", 10 << 20),
        ("2g", 2 << 30),
    ],
)
def test_parse_size_accepts_human_sizes(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize(
    "text", ["garbage", "12Q", "M", "-1", "0", -5, 0, "inf", "1e400", float("inf")]
)
def test_parse_size_rejects_garbage_and_nonpositive(text):
    with pytest.raises(ValueError):
        parse_size(text)


# -- basic record round-trips -------------------------------------------------


def test_put_get_round_trip_and_stats(tmp_path):
    store = ResultStore(tmp_path / "store")
    assert store.get("k1") is None  # cold miss
    path = store.put("k1", RECORD)
    assert path == store.path_for("k1")
    assert store.get("k1") == RECORD
    assert store.contains("k1")
    assert list(store.keys()) == ["k1"]
    stats = store.stats()
    assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
    assert stats.entries == 1
    assert stats.total_bytes == path.stat().st_size
    assert stats.invalidations == 0
    # The envelope on disk (line 1) is versioned, and the record follows it
    # verbatim on line 2.
    envelope_line, record_line = path.read_text(encoding="utf-8").splitlines()
    envelope = json.loads(envelope_line)
    assert envelope["schema_version"] == SCHEMA_VERSION
    assert json.loads(record_line) == RECORD
    assert "stored_at" in envelope


def test_delete_and_clear(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put("k1", RECORD)
    store.put("k2", RECORD)
    assert store.delete("k1")
    assert not store.delete("k1")  # already gone
    assert store.clear() == 1
    assert list(store.keys()) == []


# -- schema versioning and corruption ----------------------------------------


def _rewrite_envelope(store: ResultStore, key: str, envelope) -> None:
    store.path_for(key).write_text(json.dumps(envelope), encoding="utf-8")


@pytest.mark.parametrize(
    "envelope",
    [
        {"schema_version": SCHEMA_VERSION + 1, "record": {"x": 1}},  # future
        {"schema_version": SCHEMA_VERSION - 1, "record": {"x": 1}},  # past
        {"record": {"x": 1}},  # unversioned (pre-service cache files)
        {"schema_version": SCHEMA_VERSION, "record": [1, 2]},  # non-dict payload
        [1, 2, 3],  # not an envelope at all
    ],
)
def test_wrong_schema_is_a_miss_not_an_error(tmp_path, envelope):
    store = ResultStore(tmp_path / "store")
    store.put("k1", RECORD)
    _rewrite_envelope(store, "k1", envelope)
    assert store.get("k1") is None
    assert not store.contains("k1")
    assert store.stats().invalidations == 1
    # The next put rewrites the slot and the record becomes visible again.
    store.put("k1", RECORD)
    assert store.get("k1") == RECORD


def test_corrupt_json_is_a_miss_not_an_error(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put("k1", RECORD)
    store.path_for("k1").write_text("{truncated...", encoding="utf-8")
    assert store.get("k1") is None
    assert store.stats().invalidations == 1
    store.put("k1", RECORD)
    assert store.get("k1") == RECORD


# -- the head line ------------------------------------------------------------

HEAD = {"digest": "d" * 64, "simulated_time": 2.0, "truncated": False, "metrics": {"jobs": 1.0}}


def test_head_and_record_round_trip(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put("k1", RECORD, head=HEAD)
    assert store.head("k1") == HEAD
    assert store.get("k1") == RECORD
    assert store.contains("k1")
    store.put("k2", RECORD)  # a writer without a head stores an empty one
    assert store.head("k2") == {}
    assert store.get("k2") == RECORD
    assert (store.hits, store.misses, store.invalidations) == (4, 0, 0)


def test_valid_json_damage_to_the_record_line_is_a_miss(tmp_path):
    store = ResultStore(tmp_path / "store")
    path = store.put("k1", RECORD)
    text = path.read_text(encoding="utf-8")
    assert text.count('"x": 1') == 1
    # A flipped digit leaves valid JSON behind; only the checksum sees it.
    path.write_text(text.replace('"x": 1', '"x": 7'), encoding="utf-8")
    assert store.get("k1") is None
    assert store.head("k1") is None
    assert not store.contains("k1")
    assert store.stats().invalidations == 2


def _cut_record_line(data: bytes) -> bytes:
    envelope_line, record_line, _ = data.split(b"\n")
    return b"%s\n%s\n" % (envelope_line, record_line[: len(record_line) // 2])


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(_cut_record_line, id="truncated-record-line"),
        pytest.param(lambda data: data.replace(b"\n", b" "), id="no-newline"),
        pytest.param(
            lambda data: data.replace(
                b'"schema_version": %d' % SCHEMA_VERSION,
                b'"schema_version": %d' % (SCHEMA_VERSION - 1),
            ),
            id="wrong-schema",
        ),
    ],
)
def test_damaged_files_are_misses_for_every_read(tmp_path, damage):
    store = ResultStore(tmp_path / "store")
    path = store.put("k1", RECORD, head=HEAD)
    damaged = damage(path.read_bytes())
    assert damaged != path.read_bytes()
    path.write_bytes(damaged)
    assert store.get("k1") is None
    assert store.head("k1") is None
    assert not store.contains("k1")
    assert store.stats().invalidations == 2
    store.put("k1", RECORD, head=HEAD)
    assert store.head("k1") == HEAD


def test_head_hit_bumps_the_mtime_and_contains_does_not(tmp_path):
    store = ResultStore(tmp_path / "store")
    path = store.put("k1", RECORD, head=HEAD)
    _age(store, "k1", 300)
    aged = path.stat().st_mtime
    assert store.contains("k1")
    assert path.stat().st_mtime == aged
    assert store.head("k1") == HEAD
    assert path.stat().st_mtime > aged


@pytest.mark.parametrize(
    ("call", "expected"),
    [("get", None), ("head", None), ("contains", False), ("delete", False), ("clear", 0)],
)
def test_calls_on_a_missing_directory_create_nothing(tmp_path, call, expected):
    store = ResultStore(tmp_path / "absent" / "store")
    method = getattr(store, call)
    assert (method() if call == "clear" else method("k1")) == expected
    assert not (tmp_path / "absent").exists()


# -- LRU eviction -------------------------------------------------------------


def _age(store: ResultStore, key: str, seconds_ago: float) -> None:
    """Backdate a record's access time (the LRU ordering key)."""
    path = store.path_for(key)
    stamp = path.stat().st_mtime - seconds_ago
    os.utime(path, times=(stamp, stamp))


def test_eviction_drops_least_recently_used_first(tmp_path):
    probe = ResultStore(tmp_path / "store")
    size = probe.put("k1", RECORD).stat().st_size
    store = ResultStore(tmp_path / "store", budget_bytes=int(size * 2.5))
    _age(store, "k1", 300)
    store.put("k2", RECORD)
    _age(store, "k2", 200)
    assert sorted(store.keys()) == ["k1", "k2"]  # within budget: no eviction
    store.put("k3", RECORD)  # 3 records > 2.5 -> oldest (k1) goes
    assert sorted(store.keys()) == ["k2", "k3"]
    assert store.stats().evictions == 1
    # A hit refreshes k2, so the next eviction victim is k3.
    _age(store, "k3", 100)
    assert store.get("k2") == RECORD
    store.put("k4", RECORD)
    assert sorted(store.keys()) == ["k2", "k4"]


def test_eviction_breaks_mtime_ties_by_path(tmp_path):
    """Regression: with several records stamped with the *same* mtime (coarse
    filesystem granularity), the victim used to depend on directory-listing
    order.  The tie must break by path for a reproducible choice."""
    probe = ResultStore(tmp_path / "store")
    size = probe.put("k-a", RECORD).stat().st_size
    store = ResultStore(tmp_path / "store", budget_bytes=int(size * 2.5))
    store.put("k-b", RECORD)
    # Stamp both existing records with one identical (old) mtime.
    stamp = store.path_for("k-a").stat().st_mtime - 500
    for key in ("k-a", "k-b"):
        os.utime(store.path_for(key), times=(stamp, stamp))
    paths = sorted(str(store.path_for(key)) for key in ("k-a", "k-b"))
    victim_first = {str(store.path_for(k)): k for k in ("k-a", "k-b")}[paths[0]]
    survivor = "k-b" if victim_first == "k-a" else "k-a"
    store.put("k-c", RECORD)  # over budget: exactly one tied record goes
    assert sorted(store.keys()) == sorted([survivor, "k-c"])
    assert store.stats().evictions == 1


def test_record_that_triggered_eviction_is_never_evicted(tmp_path):
    probe = ResultStore(tmp_path / "store")
    size = probe.put("k1", RECORD).stat().st_size
    store = ResultStore(tmp_path / "store", budget_bytes=max(1, size // 2))
    # Budget smaller than one record: the fresh write must survive anyway.
    store.put("k2", RECORD)
    assert sorted(store.keys()) == ["k1", "k2"] or sorted(store.keys()) == ["k2"]
    _age(store, "k2", 100)
    store.put("k3", RECORD)
    assert "k3" in set(store.keys())  # newest survives
    assert store.get("k3") == RECORD


def test_budget_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_BUDGET", "1M")
    assert ResultStore(tmp_path / "store").budget_bytes == 1 << 20
    monkeypatch.setenv("REPRO_STORE_BUDGET", "")
    assert ResultStore(tmp_path / "store").budget_bytes is None
    # An explicit budget wins over the environment.
    monkeypatch.setenv("REPRO_STORE_BUDGET", "1M")
    assert ResultStore(tmp_path / "store", budget_bytes="2K").budget_bytes == 2048


# -- locking ------------------------------------------------------------------


def test_file_lock_is_reentrant_hostile_and_context_managed(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    with lock:
        with pytest.raises(RuntimeError, match="already held"):
            lock.acquire()
    with lock:  # release() made it acquirable again
        pass
    lock.release()  # double release is harmless


@pytest.mark.skipif(fcntl is None, reason="flock requires fcntl")
def test_exclusive_lock_excludes_other_processes_handles(tmp_path):
    path = tmp_path / "x.lock"
    with FileLock(path):
        with open(path, "a+") as rival:
            with pytest.raises(OSError):  # BlockingIOError on Linux
                fcntl.flock(rival.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)


@pytest.mark.skipif(fcntl is None, reason="flock requires fcntl")
def test_shared_locks_coexist(tmp_path):
    path = tmp_path / "x.lock"
    with FileLock(path, shared=True):
        with open(path, "a+") as rival:
            fcntl.flock(rival.fileno(), fcntl.LOCK_SH | fcntl.LOCK_NB)
            fcntl.flock(rival.fileno(), fcntl.LOCK_UN)


# -- the engine's ResultCache rides on the store ------------------------------


def test_result_cache_delegates_to_the_store(tmp_path):
    cache = ResultCache(tmp_path / "cache", budget_bytes="1M")
    assert cache.backend.budget_bytes == 1 << 20
    assert cache.directory == cache.backend.directory


def test_cache_schema_invalidation_forces_rerun_and_rewrite(tmp_path):
    config = tiny_config(name="cache-schema")
    cache = ResultCache(tmp_path / "cache")
    (first,) = run_configs([config], cache=cache)
    key = config_key(config)
    assert cache.backend.contains(key)

    # An old-generation record is invisible: load misses, the sweep reruns.
    envelope_line, record_line = cache.path_for(config).read_text(encoding="utf-8").splitlines()
    envelope = json.loads(envelope_line)
    envelope["schema_version"] = SCHEMA_VERSION - 1
    cache.path_for(config).write_text(
        f"{json.dumps(envelope)}\n{record_line}\n", encoding="utf-8"
    )
    assert cache.load(config) is None
    (again,) = run_configs([config], cache=cache)
    assert cache.backend.contains(key)  # rewritten under the current schema
    loaded = cache.load(config)
    assert loaded is not None
    assert loaded.metrics.to_dict() == first.metrics.to_dict()
    assert again.metrics.to_dict() == first.metrics.to_dict()
