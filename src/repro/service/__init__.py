"""The experiment service: an async daemon over a content-addressed result store.

Today's scenario engine is a library plus a CLI: every consumer shells out to
``repro-cli`` and shares one on-disk cache.  This package promotes it to a
long-running *service* so many concurrent clients sweeping overlapping
configuration grids deduplicate work instead of repeating it:

* :mod:`repro.service.store` — the content-addressed result store.  Results
  are keyed by the canonical :class:`~repro.experiments.setup.ExperimentConfig`
  hash, records carry a schema version (old or corrupt records are misses,
  never crashes), writes are atomic and cross-process file-locked, and a
  size budget is enforced by least-recently-used eviction.  The standalone
  engine's :class:`~repro.experiments.engine.ResultCache` is a thin wrapper
  over this store, so serial, parallel, daemon and cached paths all produce
  byte-identical records.
* :mod:`repro.service.protocol` — the newline-delimited JSON wire protocol
  and the ``concise``/``detailed`` response formats shared by daemon and
  client.
* :mod:`repro.service.daemon` — the asyncio daemon.  It owns a process
  worker pool and the store; identical configs submitted by different
  clients coalesce onto one in-flight run, and finished results are served
  straight from the store.  Operations: ``submit``, ``get``, ``list``,
  ``cancel``, ``batch``, ``run_and_wait``, ``status``, ``shutdown``.
* :mod:`repro.service.client` — a thin synchronous client speaking the same
  protocol, used by ``repro-cli client`` and importable directly.

The package re-exports the client side and the store only.  They need
nothing beyond the standard library, so a client loads no simulator and no
numpy; the daemon is :class:`repro.service.daemon.ExperimentService`.

Start a daemon and talk to it::

    repro-cli serve --socket /tmp/repro.sock --workers 4 &
    repro-cli client --socket /tmp/repro.sock status
    repro-cli client --socket /tmp/repro.sock run-and-wait --workload Wm \
        --policy EGS --job-count 40

or programmatically (see ``examples/service_client.py``)::

    from repro.service import ServiceClient

    with ServiceClient(socket_path="/tmp/repro.sock") as client:
        response = client.run_and_wait({"workload": "Wm", "job_count": 40})
        print(response["metrics"])
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.store import ResultStore, SCHEMA_VERSION

__all__ = [
    "ResultStore",
    "SCHEMA_VERSION",
    "ServiceClient",
    "ServiceError",
]
