"""Content-addressed result store: the persistence layer of the service.

One record per key, one file per record, addressed purely by content
hash — for experiment results the key is
:func:`repro.experiments.engine.config_key`, a SHA-256 over the canonical
configuration plus the code version, so the *name* of a result is a proof of
*what* produced it.  The store itself is agnostic: it maps ``key: str`` to
``record: dict`` and never interprets the payload, which keeps it free of
import cycles with the experiments layer (whose
:class:`~repro.experiments.engine.ResultCache` wraps it).

Guarantees
----------
* **Two lines per file.**  Line 1 is a small JSON envelope:
  ``schema_version``, ``stored_at``, the writer's ``head`` (a small JSON
  object describing the record, ``{}`` when the writer gave none) and
  ``record_sha256``, the SHA-256 of line 2's bytes.  Line 2 is the record,
  ``json.dumps(record, sort_keys=True)``.  :meth:`ResultStore.head` answers
  from line 1 and never parses the record; :meth:`ResultStore.get` parses
  line 2 as well.
* **Atomic writes.**  Records are written to a temporary sibling and
  ``os.replace``\\ d into place; a reader never observes a partial file.
* **Cross-process locking.**  Mutations (put, evict, clear) hold an
  exclusive ``flock`` on a sidecar lock file; reads take a shared lock.
  Many daemons, sweeps and CLIs can share one store directory.  Reads,
  deletes and clears of a directory that does not exist create nothing.
* **Schema versioning and checksums.**  Every file embeds
  :data:`SCHEMA_VERSION` (2, the two-line format).  A file written under
  another schema, a corrupt or truncated file, a head that is not an
  object, or a record line whose SHA-256 differs from the envelope's is a
  *miss*, silently rewritten by the next put — old stores degrade to cold
  ones, they never crash a sweep.  The checksum is what lets a head read
  notice a damaged record line it does not parse, even damage that leaves
  valid JSON behind.
* **Bounded size.**  With a byte budget configured, a put that pushes the
  store over the budget evicts least-recently-*used* records (access times
  are tracked via file mtime, bumped on every hit) until it fits again.
  The record just written is never evicted: the budget bounds the steady
  state, not a single oversized result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

try:  # POSIX; the only platform the test/CI matrix runs on.
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback: locking is a no-op
    fcntl = None  # type: ignore[assignment]

#: Version of the on-disk record envelope.  Bump whenever the meaning or
#: shape of stored records changes incompatibly; every record written under
#: a different version is invisible (a miss) to this code.
SCHEMA_VERSION = 2

#: Environment variable bounding the default store size (e.g. ``512M``).
STORE_BUDGET_ENV = "REPRO_STORE_BUDGET"

#: Environment variable overriding the default store directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_SIZE_SUFFIXES = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def default_cache_dir() -> Path:
    """The default store directory, which the engine's result cache shares.

    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-experiments``.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-experiments"


def parse_size(text: Union[str, int, float, None]) -> Optional[int]:
    """Parse a human byte size (``"512M"``, ``"2G"``, ``4096``) to bytes.

    ``None`` and empty strings parse to ``None`` (no budget).  Raises
    :class:`ValueError` on garbage, non-finite or non-positive sizes, so a
    typo'd budget fails loudly instead of silently disabling eviction.
    """
    if text is None:
        return None
    if isinstance(text, (int, float)):
        size = text
    else:
        stripped = text.strip().upper()
        if not stripped:
            return None
        multiplier = 1
        if stripped[-1] in ("B",):
            stripped = stripped[:-1]
        if stripped and stripped[-1] in _SIZE_SUFFIXES:
            multiplier = _SIZE_SUFFIXES[stripped[-1]]
            stripped = stripped[:-1]
        try:
            size = float(stripped) * multiplier
        except ValueError:
            raise ValueError(f"cannot parse size {text!r}") from None
    if isinstance(size, float) and not math.isfinite(size):
        raise ValueError(f"size must be finite, got {text!r}")
    value = int(size)
    if value <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return value


def _decode(
    data: bytes, *, record: bool
) -> Optional[Tuple[Dict[str, Any], Optional[Dict[str, Any]]]]:
    """``(head, record)`` from a record file's bytes, or ``None`` if invalid.

    Line 1 must be an envelope of this :data:`SCHEMA_VERSION` with a dict
    head and the SHA-256 of line 2; without *record* line 2 is never
    parsed and ``None`` stands in for it, with *record* it must parse to a
    dict.
    """
    try:
        envelope_line, record_line, tail = data.split(b"\n", 2)
        envelope = json.loads(envelope_line)
    except ValueError:  # fewer than two lines, or line 1 is not JSON
        return None
    if (
        tail
        or not isinstance(envelope, dict)
        or envelope.get("schema_version") != SCHEMA_VERSION
        or not isinstance(envelope.get("head"), dict)
        or envelope.get("record_sha256") != hashlib.sha256(record_line).hexdigest()
    ):
        return None
    if not record:
        return envelope["head"], None
    try:
        payload = json.loads(record_line)
    except ValueError:
        return None
    return (envelope["head"], payload) if isinstance(payload, dict) else None


class FileLock:
    """A cross-process advisory lock over one file, via ``flock``.

    Usable as a context manager; *shared* locks (many readers) and
    *exclusive* locks (one writer) are both supported.  The lock file is
    created on first use, its directory is not: acquiring a lock in a
    directory that does not exist raises :class:`FileNotFoundError`.  On
    platforms without :mod:`fcntl` the lock degrades to a no-op —
    single-process correctness is unaffected, only cross-process mutual
    exclusion is lost.
    """

    def __init__(self, path: Union[str, Path], *, shared: bool = False) -> None:
        self.path = Path(path)
        self.shared = shared
        self._handle = None

    def acquire(self) -> None:
        if self._handle is not None:
            raise RuntimeError("lock is already held")
        handle = open(self.path, "a+")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_SH if self.shared else fcntl.LOCK_EX)
        self._handle = handle

    def release(self) -> None:
        handle, self._handle = self._handle, None
        if handle is None:
            return
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


@dataclass
class StoreStats:
    """Counters and sizes of one :class:`ResultStore`.

    ``hits``/``misses``/``invalidations``/``evictions``/``puts`` are
    per-process counters (they describe this store *object*, not the
    directory's lifetime); ``entries``/``total_bytes`` are measured from
    disk at call time and therefore reflect every process sharing the
    directory.
    """

    entries: int
    total_bytes: int
    budget_bytes: Optional[int]
    hits: int
    misses: int
    invalidations: int
    evictions: int
    puts: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "puts": self.puts,
        }


class ResultStore:
    """Content-addressed ``key -> record`` store over one directory.

    Parameters
    ----------
    directory:
        Where the records live.  Created on first write.
    budget_bytes:
        Soft size bound in bytes (or a string like ``"256M"``); ``None``
        reads ``$REPRO_STORE_BUDGET`` and falls back to unbounded.
        Exceeding the budget triggers least-recently-used eviction on the
        next put.
    """

    #: File name of the sidecar lock; never counted as a record.
    LOCK_NAME = ".store.lock"

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        budget_bytes: Union[str, int, None] = None,
    ) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.directory = Path(directory)
        if budget_bytes is None:
            budget_bytes = os.environ.get(STORE_BUDGET_ENV) or None
        self.budget_bytes = parse_size(budget_bytes)
        #: Per-instance metrics registry (see :mod:`repro.obs.metrics`): the
        #: counters describe this store *object*, matching the pre-registry
        #: plain-int semantics, and the daemon's ``metrics`` op exposes the
        #: whole snapshot.  The historical attribute names (``store.hits``
        #: etc.) remain available as read-only int properties.
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("store.hits")
        self._misses = self.metrics.counter("store.misses")
        self._invalidations = self.metrics.counter("store.invalidations")
        self._evictions = self.metrics.counter("store.evictions")
        self._puts = self.metrics.counter("store.puts")

    # -- counter back-compat ---------------------------------------------------

    @property
    def hits(self) -> int:
        """Valid records or heads returned by :meth:`get` and :meth:`head`."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Lookups that returned ``None`` (this instance)."""
        return self._misses.value

    @property
    def invalidations(self) -> int:
        """Misses caused by corrupt or schema-incompatible files."""
        return self._invalidations.value

    @property
    def evictions(self) -> int:
        """Records deleted by the LRU budget enforcement."""
        return self._evictions.value

    @property
    def puts(self) -> int:
        """Records written by :meth:`put` (this instance)."""
        return self._puts.value

    # -- paths ---------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """The file a record for *key* lives in (existing or not)."""
        return self.directory / f"{key}.json"

    def _lock(self, *, shared: bool = False) -> FileLock:
        return FileLock(self.directory / self.LOCK_NAME, shared=shared)

    def _entries(self) -> List[Tuple[Path, os.stat_result]]:
        """Every record file with its stat, skipping vanished ones."""
        entries: List[Tuple[Path, os.stat_result]] = []
        if not self.directory.is_dir():
            return entries
        for path in self.directory.glob("*.json"):
            try:
                entries.append((path, path.stat()))
            except OSError:
                continue  # evicted or replaced under us: not an error
        return entries

    # -- read path -----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The record stored under *key*, or ``None`` on a miss.

        Corrupt files and records written under a different
        :data:`SCHEMA_VERSION` count as misses (and as ``invalidations`` in
        the stats); a hit bumps the record's mtime, which is what the LRU
        eviction policy orders by.
        """
        found = self._read(key, record=True)
        return None if found is None else found[1]

    def head(self, key: str) -> Optional[Dict[str, Any]]:
        """The head stored with *key*'s record, or ``None`` on a miss.

        Validates the file exactly as :meth:`get` does — a record line that
        fails its checksum is a miss here too — but never parses the
        record.  A hit bumps the mtime like a :meth:`get` hit.
        """
        found = self._read(key, record=False)
        return None if found is None else found[0]

    def contains(self, key: str) -> bool:
        """Whether a *valid* record for *key* exists (without bumping LRU)."""
        return self._read(key, record=False, use=False) is not None

    def _read(
        self, key: str, *, record: bool, use: bool = True
    ) -> Optional[Tuple[Dict[str, Any], Optional[Dict[str, Any]]]]:
        """The one validating read: ``(head, record)`` of *key*, or ``None``.

        See :func:`_decode` for what makes a file valid; *record* also
        parses line 2 (the daemon's detailed replies take head and record
        from this one read).  With *use* (a :meth:`get` or :meth:`head`) the
        lookup counts in the stats and a hit bumps the mtime; without it (a
        :meth:`contains`) it does neither.
        """
        path = self.path_for(key)
        try:
            with self._lock(shared=True):
                data = path.read_bytes()
        except OSError:  # no such record, or no store directory at all
            if use:
                self._misses.inc()
            return None
        found = _decode(data, record=record)
        if use:
            if found is None:
                # Written by another schema generation, damaged, or not by us
                # at all: invisible, and rewritten in place by the next put.
                self._misses.inc()
                self._invalidations.inc()
                return None
            try:
                os.utime(path)  # LRU bookkeeping: this record was just used
            except OSError:
                pass
            self._hits.inc()
        return found

    def keys(self) -> Iterator[str]:
        """The keys currently on disk (schema validity not checked)."""
        for path, _ in self._entries():
            yield path.stem

    # -- write path ----------------------------------------------------------

    def put(
        self,
        key: str,
        record: Dict[str, Any],
        *,
        head: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist *record* under *key*, with *head* beside it; returns the file.

        *head* is the small summary :meth:`head` returns without parsing the
        record (``{}`` when omitted).  The write is atomic (temp file +
        ``os.replace``) and holds the store's exclusive lock together with
        any eviction it triggers, so concurrent writers interleave cleanly.
        """
        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        record_line = json.dumps(record, sort_keys=True).encode("utf-8")
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "stored_at": time.time(),
            "head": {} if head is None else head,
            "record_sha256": hashlib.sha256(record_line).hexdigest(),
        }
        envelope_line = json.dumps(envelope, sort_keys=True).encode("utf-8")
        with self._lock():
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(b"%s\n%s\n" % (envelope_line, record_line))
            os.replace(tmp, path)
            self._puts.inc()
            if self.budget_bytes is not None:
                self._evict_locked(keep=path)
        return path

    def delete(self, key: str) -> bool:
        """Remove the record for *key*; ``True`` if one existed."""
        try:
            with self._lock():  # raises when there is no store directory
                self.path_for(key).unlink()
        except OSError:
            return False
        return True

    def clear(self) -> int:
        """Delete every record; returns the number of files removed."""
        if not self.directory.is_dir():
            return 0
        removed = 0
        with self._lock():
            for path, _ in self._entries():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def _evict_locked(self, keep: Optional[Path] = None) -> int:
        """Evict least-recently-used records until the budget holds.

        Caller must hold the exclusive lock.  *keep* (the record that
        triggered the eviction) is never removed, so one oversized record
        cannot evict itself into a livelock.
        """
        assert self.budget_bytes is not None
        entries = self._entries()
        total = sum(stat.st_size for _, stat in entries)
        if total <= self.budget_bytes:
            return 0
        evicted = 0
        # Oldest access first; the freshly written record is exempt.  Ties on
        # mtime are broken by path: filesystems with coarse mtime granularity
        # routinely stamp several records identically, and without a total
        # order the victim choice would differ between hosts (and between
        # runs), defeating reproducible cache behaviour.
        entries.sort(key=lambda pair: (pair[1].st_mtime, str(pair[0])))
        for path, stat in entries:
            if total <= self.budget_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= stat.st_size
            evicted += 1
        self._evictions.inc(evicted)
        return evicted

    # -- stats ---------------------------------------------------------------

    def stats(self) -> StoreStats:
        """Sizes (measured now) and this process's counters."""
        entries = self._entries()
        return StoreStats(
            entries=len(entries),
            total_bytes=sum(stat.st_size for _, stat in entries),
            budget_bytes=self.budget_bytes,
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
            evictions=self.evictions,
            puts=self.puts,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultStore {str(self.directory)!r} budget={self.budget_bytes}>"
