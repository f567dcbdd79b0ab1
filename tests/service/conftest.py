"""Fixtures for the experiment-service tests.

The daemon tests run a real :class:`~repro.service.daemon.ExperimentService`
in a background thread, talking to it over a Unix socket in ``tmp_path`` —
the exact transport and code path production clients use.  Two kinds of
runner plug into it:

* the real :func:`~repro.experiments.engine._execute_record` on a process
  pool, for byte-identity and end-to-end tests;
* a *gated* fake runner on a thread pool, whose executions block on a
  :class:`threading.Event` the test controls — which makes queued/running
  states, coalescing windows and cancellation races fully deterministic.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import pytest

from _helpers import tiny_config
from repro.experiments.engine import result_to_record
from repro.experiments.setup import run_experiment
from repro.service import ResultStore, ServiceClient
from repro.service.daemon import ExperimentService


@pytest.fixture(scope="session")
def tiny_record() -> Dict[str, Any]:
    """A genuine result record (valid metrics payload for fake runners)."""
    return result_to_record(run_experiment(tiny_config()))


class DaemonHandle:
    """One background daemon plus the plumbing to reach and stop it."""

    def __init__(
        self,
        service: ExperimentService,
        socket_path,
        thread: threading.Thread,
        pool: Optional[ThreadPoolExecutor],
    ) -> None:
        self.service = service
        self.socket_path = socket_path
        self.thread = thread
        self.pool = pool

    def client(self, **kwargs: Any) -> ServiceClient:
        return ServiceClient(socket_path=self.socket_path, **kwargs)

    def stop(self, timeout: float = 30.0) -> None:
        if self.thread.is_alive():
            try:
                with self.client(timeout=5.0) as client:
                    client.shutdown()
            except (OSError, ConnectionError):
                pass
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "daemon thread failed to stop"
        if self.pool is not None:
            self.pool.shutdown(wait=False)


@pytest.fixture
def daemon(tmp_path):
    """Factory starting daemons in background threads; stops them on teardown."""
    handles: List[DaemonHandle] = []

    def start(
        *,
        store=None,
        workers: int = 2,
        runner=None,
        tag: str = "svc",
    ) -> DaemonHandle:
        if store is None:
            store = ResultStore(tmp_path / f"{tag}-store")
        # Fake runners are plain closures: run them on threads (a process
        # pool would need them picklable and would hide the gate object).
        pool = ThreadPoolExecutor(max_workers=workers) if runner is not None else None
        service = ExperimentService(store, workers=workers, runner=runner, pool=pool)
        ready = threading.Event()
        thread = threading.Thread(
            target=service.run,
            kwargs={
                "socket_path": tmp_path / f"{tag}.sock",
                "on_ready": lambda _address: ready.set(),
            },
            daemon=True,
            name=f"repro-daemon-{tag}",
        )
        thread.start()
        assert ready.wait(30), "daemon failed to start"
        handle = DaemonHandle(service, tmp_path / f"{tag}.sock", thread, pool)
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()
