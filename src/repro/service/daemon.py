"""The experiment daemon: an asyncio service over the scenario engine.

One long-running process owns a worker pool and a
:class:`~repro.service.store.ResultStore`; any number of clients connect
over a local socket and speak the newline-delimited JSON protocol of
:mod:`repro.service.protocol`.  The daemon's contract:

* **Content addressing.**  A submission is identified by
  :func:`repro.experiments.engine.config_key` — the SHA-256 of its
  canonical configuration plus the code version.  Identical configs are the
  *same job* no matter who submits them.
* **Deduplication.**  A submit first consults the store (results computed
  by any previous run, daemon or standalone sweep), then the in-flight
  table: a config that is already queued or running *coalesces* — the new
  client attaches to the existing run instead of spawning a duplicate
  worker.  N concurrent submits of one config execute exactly once.
* **Cheap store hits.**  Every result is stored with its reply *head*
  (:func:`repro.service.protocol.result_head`), so a store hit enters the
  job table with the head alone and a concise reply recomputes nothing;
  only a detailed reply reads the record back from the store.
* **Byte identity.**  Workers execute
  :func:`repro.experiments.engine._execute_record`, the exact entry point
  of the parallel sweep engine, and results travel as the exact cache wire
  format — a daemon result is byte-identical to a ``repro-cli run`` of the
  same config.
* **Honest cancellation.**  Queued jobs cancel immediately; running jobs
  are never killed mid-simulation (results are deterministic and nearly
  paid for) — ``cancel`` reports ``cancelled: false`` for them.

The daemon is deliberately single-loop: all bookkeeping (job table, stats,
state transitions) happens on the event loop, so no locks are needed around
the coalescing decision — two "simultaneous" submits of one config are
serialised by the loop itself.  The one blocking dependency — the store's
flock-guarded file I/O, which another process can stall by holding the
store lock — runs on a dedicated single thread (:meth:`_store_call`), so a
slow store never freezes the event loop, and store operations stay
serialised relative to each other.
"""

from __future__ import annotations

import asyncio
import functools
import sys
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import repro
from repro.experiments.engine import _execute_record, config_key
from repro.experiments.setup import ExperimentConfig, frees_its_run
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.service import protocol
from repro.service.client import default_socket_path
from repro.service.store import ResultStore

_log = get_logger("service")

#: Byte limit per protocol line (requests *and* responses): generous enough
#: for a detailed 300-job record, small enough to bound a hostile client.
LINE_LIMIT = 1 << 24

#: Job lifecycle states, as they appear on the wire.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States in which a job occupies (or will occupy) a worker.
ACTIVE_STATES = (QUEUED, RUNNING)


@frees_its_run
def _execute_checkpointed(
    config_data: Dict[str, Any], every: float, directory: str
) -> Dict[str, Any]:
    """Worker entry point of the ``checkpointed`` operation.

    Runs one configuration through
    :func:`repro.checkpoint.runner.run_checkpointed`, persisting a
    checkpoint under *directory* every *every* simulated seconds (native or
    replay, as the configuration allows).  If the
    directory already holds checkpoints — a previous attempt died mid-run —
    the run resumes from the most advanced restorable one instead of
    starting over; on completion the checkpoints are deleted.  Returns a
    JSON-shaped windowed summary (streaming metrics, no per-job arrays).
    The restore happens inside this function's GC pause, so a resumed run
    is freed on return like a fresh one (see
    :func:`~repro.experiments.setup.frees_its_run`).
    """
    from repro.checkpoint.restore import restore_run
    from repro.checkpoint.envelope import load_checkpoint
    from repro.checkpoint.runner import run_checkpointed

    config = ExperimentConfig.from_dict(config_data)
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    best: Optional[Tuple[float, Dict[str, Any]]] = None
    for candidate in target.glob("state-*.json"):
        try:
            data = load_checkpoint(candidate)
            at = float.fromhex(data["time"])
        except Exception:
            continue
        if best is None or at > best[0]:
            best = (at, data)
    run = None
    resumed_at: Optional[float] = None
    if best is not None:
        try:
            run = restore_run(best[1])
            resumed_at = best[0]
        except Exception:
            run = None
    out = run_checkpointed(
        config, checkpoint_every=float(every), path=target / "state.json", run=run
    )
    if out["all_done"]:
        for old in target.glob("state-*.json"):
            try:
                old.unlink()
            except OSError:
                pass
    window = out["window"]
    return {
        "config": config.to_dict(),
        "jobs": int(window.jobs),
        "digest": window.digest,
        "all_done": bool(out["all_done"]),
        "simulated_time": float(out["simulated_time"]),
        "events_processed": int(out["events_processed"]),
        "checkpoints": int(out["checkpoints"]),
        "resumed_at": resumed_at,
    }


class _BadRequest(ValueError):
    """A client-side request error; reported with code ``bad_request``."""


@dataclass
class ServiceJob:
    """One entry of the daemon's job table."""

    key: str
    config: Dict[str, Any]
    name: str
    state: str = QUEUED
    #: How the daemon first learned the answer: ``spawned`` (a worker ran
    #: it), ``store`` (read back from the result store).
    source: str = "spawned"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: The result's reply head (:func:`repro.service.protocol.result_head`),
    #: set once the job is done; every reply is built from it.
    head: Optional[Dict[str, Any]] = None
    #: The full record, kept only by jobs this daemon ran: store-served
    #: entries hold the head alone and read the record back from the store
    #: for a detailed reply.
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    task: Optional["asyncio.Task[None]"] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def wall_time(self) -> Optional[float]:
        """Worker wall-clock seconds (``None`` unless this daemon ran it)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def summary(self) -> Dict[str, Any]:
        """The fields every job listing carries."""
        return {
            "key": self.key,
            "name": self.name,
            "state": self.state,
            "source": self.source,
            "submitted_at": self.submitted_at,
            "wall_time": self.wall_time,
            "error": self.error,
        }


class ExperimentService:
    """The daemon: job table, worker pool and store behind a local socket.

    Parameters
    ----------
    store:
        The result store (a :class:`~repro.service.store.ResultStore` or a
        directory for one).
    workers:
        Concurrent simulations; also the size of the default process pool.
    runner:
        The callable workers execute, ``(config_dict) -> record_dict``.
        Defaults to the sweep engine's
        :func:`~repro.experiments.engine._execute_record`; tests inject
        controllable stand-ins here.
    pool:
        An :class:`~concurrent.futures.Executor` to run *runner* on.
        ``None`` creates a :class:`~concurrent.futures.ProcessPoolExecutor`
        of *workers* processes on startup.
    tracer:
        Optional :class:`repro.obs.trace.Tracer` recording daemon-side
        ``span`` records (one per dispatched operation, with wall-clock
        milliseconds — daemon traces are operational, not deterministic)
        and ``cache`` records for every submit-path store consultation.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, Path],
        *,
        workers: int = 2,
        runner: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        pool: Optional[Executor] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.workers = workers
        self._runner = runner if runner is not None else _execute_record
        self._pool: Optional[Executor] = pool
        self._owns_pool = pool is None
        self.jobs: Dict[str, ServiceJob] = {}
        #: Per-daemon metrics registry; the historical attribute names
        #: (``executions``, ``coalesced``, ``store_served``, ``requests``)
        #: stay available as read-only int properties, and ``status`` keeps
        #: reporting them as the same wire fields.  The ``metrics`` op
        #: exposes the full snapshot (plus per-op latency histograms).
        self.metrics = MetricsRegistry()
        self._executions = self.metrics.counter("service.executions")
        self._coalesced = self.metrics.counter("service.coalesced")
        self._store_served = self.metrics.counter("service.store_served")
        self._requests = self.metrics.counter("service.requests")
        self.tracer = tracer
        self.started_at: Optional[float] = None
        self.address: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._socket_path: Optional[Path] = None
        self._stop: Optional[asyncio.Event] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._store_io: Optional[ThreadPoolExecutor] = None

    # -- counter back-compat ---------------------------------------------------

    @property
    def executions(self) -> int:
        """Worker runs this daemon actually executed."""
        return self._executions.value

    @property
    def coalesced(self) -> int:
        """Submissions attached to an already-active run of the same config."""
        return self._coalesced.value

    @property
    def store_served(self) -> int:
        """Submissions answered straight from the result store."""
        return self._store_served.value

    @property
    def requests(self) -> int:
        """Protocol requests dispatched (including invalid ones)."""
        return self._requests.value

    # -- lifecycle -----------------------------------------------------------

    async def start(
        self,
        *,
        socket_path: Union[str, Path, None] = None,
        host: Optional[str] = None,
        port: int = 0,
    ) -> str:
        """Bind and start serving; returns the address actually bound.

        Either *socket_path* (a Unix domain socket, the default transport)
        or *host*/*port* (localhost TCP) — a stale socket file at
        *socket_path* is replaced.
        """
        self._stop = asyncio.Event()
        self._slots = asyncio.Semaphore(self.workers)
        if self._store_io is None:
            self._store_io = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-store-io"
            )
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self.started_at = time.time()
        if host is not None:
            self._server = await asyncio.start_server(
                self._handle, host, port, limit=LINE_LIMIT
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        else:
            path = Path(socket_path) if socket_path is not None else default_socket_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle, path=str(path), limit=LINE_LIMIT
            )
            self._socket_path = path
            self.address = str(path)
        _log.info("daemon listening on %s (%d workers)", self.address, self.workers)
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`request_shutdown`)."""
        assert self._stop is not None, "start() must run first"
        await self._stop.wait()
        await self.aclose()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (thread-unsafe; use from the loop)."""
        if self._stop is not None:
            self._stop.set()

    async def aclose(self) -> None:
        """Stop accepting, cancel queued jobs, drain running ones, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        active = [job.task for job in self.jobs.values() if job.task is not None]
        for job in self.jobs.values():
            if job.state == QUEUED and job.task is not None:
                job.cancel_requested = True
                job.task.cancel()
        if active:
            await asyncio.gather(*active, return_exceptions=True)
        for job in self.jobs.values():
            # A task cancelled before its first loop step never entered
            # _run_job, so its finally block never ran: finalize it here.
            self._finalize_unstarted_cancel(job)
        if self._store_io is not None:
            self._store_io.shutdown(wait=True)
            self._store_io = None
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._socket_path is not None:
            try:
                self._socket_path.unlink()
            except OSError:
                pass
            self._socket_path = None

    def run(
        self,
        *,
        socket_path: Union[str, Path, None] = None,
        host: Optional[str] = None,
        port: int = 0,
        on_ready: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Blocking entry point: serve until shutdown (or SIGINT/SIGTERM).

        *on_ready* is called with the bound address once the daemon accepts
        connections — the CLI prints it, tests use it to rendezvous.
        """

        async def main() -> None:
            address = await self.start(socket_path=socket_path, host=host, port=port)
            loop = asyncio.get_running_loop()
            try:
                import signal

                for signum in (signal.SIGINT, signal.SIGTERM):
                    loop.add_signal_handler(signum, self.request_shutdown)
            except (ImportError, NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal handlers
            if on_ready is not None:
                on_ready(address)
            await self.serve_until_shutdown()

        asyncio.run(main())

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: request lines in, response lines out."""
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        protocol.encode(
                            protocol.error_response(None, "oversized", "request line too long")
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self.dispatch_line(line)
                writer.write(protocol.encode(response))
                await writer.drain()
                if response.get("op") == "shutdown" and response.get("ok"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-conversation; its jobs keep running
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def dispatch_line(self, line: bytes) -> Dict[str, Any]:
        """Decode and dispatch one request line (never raises)."""
        try:
            request = protocol.decode(line)
        except ValueError as error:
            return protocol.error_response(None, "bad_request", str(error))
        return await self.dispatch(request)

    async def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request to its operation handler (never raises)."""
        self._requests.inc()
        op = request.get("op")
        handler = {
            "submit": self._op_submit,
            "get": self._op_get,
            "list": self._op_list,
            "cancel": self._op_cancel,
            "batch": self._op_batch,
            "run_and_wait": self._op_run_and_wait,
            "checkpointed": self._op_checkpointed,
            "status": self._op_status,
            "metrics": self._op_metrics,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            self.metrics.counter("service.unknown_ops").inc()
            return self._echo_id(
                request,
                protocol.error_response(
                    op if isinstance(op, str) else None,
                    "unknown_op",
                    f"unknown operation {op!r}; expected one of {protocol.OPERATIONS}",
                ),
            )
        began = time.monotonic()
        try:
            response = await handler(request)
        except asyncio.CancelledError:
            raise
        except _BadRequest as error:  # malformed request field: client error
            response = protocol.error_response(op, "bad_request", str(error))
        except Exception as error:  # a handler bug must not kill the daemon
            _log.error("operation %s failed: %s: %s", op, type(error).__name__, error)
            response = protocol.error_response(
                op, "internal", f"{type(error).__name__}: {error}"
            )
        elapsed = time.monotonic() - began
        # Wall-clock op latency: includes any await on workers/store, which
        # is exactly what a client of this op experienced.
        self.metrics.histogram(f"service.op.{op}.seconds").observe(elapsed)
        tracer = self.tracer
        if tracer is not None:
            tracer.record(
                "span", op=str(op), ms=elapsed * 1000.0, ok=bool(response.get("ok"))
            )
        return self._echo_id(request, response)

    @staticmethod
    def _echo_id(request: Dict[str, Any], response: Dict[str, Any]) -> Dict[str, Any]:
        if "id" in request:
            response["id"] = request["id"]
        return response

    # -- request plumbing ----------------------------------------------------

    @staticmethod
    def _response_format(request: Dict[str, Any]) -> str:
        """The request's validated ``response_format``, as a client error."""
        try:
            return protocol.response_format(request)
        except ValueError as error:
            raise _BadRequest(str(error)) from None

    def _parse_config(self, request: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
        """Validate the request's ``config`` into ``(key, canonical dict)``.

        Runs the full :class:`ExperimentConfig` validation, so a typo'd
        policy name fails here — at submit time, with the registered names
        listed — not inside a worker.
        """
        data = request.get("config")
        if not isinstance(data, dict):
            raise ValueError("'config' must be a mapping of experiment-config fields")
        # Strict parse: a typo'd field name in a submit request fails here
        # with the valid fields listed, instead of being silently dropped.
        config = ExperimentConfig.from_fields(data)
        return config_key(config), config.to_dict()

    # -- the submit path (shared by submit/batch/run_and_wait) ---------------

    async def _store_call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one blocking store operation off the event loop.

        The store's file I/O sits behind a cross-process ``flock`` — another
        process holding the lock (a parallel sweep mid-eviction, say) would
        otherwise stall the entire event loop and freeze every connection.
        A single dedicated thread keeps store operations serialised
        relative to each other.
        """
        assert self._store_io is not None, "start() must run first"
        return await asyncio.get_running_loop().run_in_executor(
            self._store_io, functools.partial(fn, *args, **kwargs)
        )

    async def _stored_payload(self, key: str, fmt: str) -> Optional[Dict[str, Any]]:
        """The reply fields of *key*'s stored result, or ``None`` on a miss.

        A concise reply reads the head alone; a detailed one takes head and
        record from one file read.  A head without a digest (a record
        written with no head) is a miss, like a missing or damaged file.
        """
        found = await self._store_call(self.store._read, key, record=fmt == "detailed")
        if found is None or "digest" not in found[0]:
            return None
        head, record = found
        return protocol.result_payload(head, fmt, record)

    def _table_lookup(self, key: str) -> Optional[Tuple[ServiceJob, str]]:
        """Resolve *key* against the in-memory job table, if it can be."""
        job = self.jobs.get(key)
        if job is not None and job.state in ACTIVE_STATES:
            self._coalesced.inc()
            return job, "attached"
        if job is not None and job.state == DONE:
            return job, "session"
        return None

    async def _submit_config(
        self, key: str, config: Dict[str, Any]
    ) -> Tuple[ServiceJob, str]:
        """Dedup one submission; returns ``(job, how)``.

        ``how`` is ``"attached"`` (coalesced onto an active run),
        ``"session"`` (already finished in this daemon), ``"store"`` (served
        from the result store) or ``"spawned"`` (a fresh worker run).  Table
        bookkeeping happens synchronously on the event loop; the one await
        (the off-loop store read) is followed by a re-check, because a
        concurrent submit of the same config may have raced in during it —
        which keeps the coalescing decision race-free.
        """
        hit = self._table_lookup(key)
        if hit is not None:
            return hit
        # Failed or cancelled jobs are resubmittable; first try the store.
        # Its head is all a table entry keeps: a record written without one
        # is a miss, run again and rewritten with its head.
        head = await self._store_call(self.store.head, key)
        hit = self._table_lookup(key)
        if hit is not None:
            return hit
        served = head is not None and "digest" in head
        tracer = self.tracer
        if tracer is not None:
            tracer.record("cache", op="submit", key=key, hit=served)
        if served:
            self._store_served.inc()
            job = ServiceJob(
                key=key,
                config=config,
                name=str(config.get("name", "experiment")),
                state=DONE,
                source="store",
                submitted_at=time.time(),
                head=head,
            )
            job.done.set()
            self.jobs[key] = job
            return job, "store"
        job = ServiceJob(
            key=key,
            config=config,
            name=str(config.get("name", "experiment")),
            submitted_at=time.time(),
        )
        self.jobs[key] = job
        job.task = asyncio.get_running_loop().create_task(self._run_job(job))
        return job, "spawned"

    async def _run_job(self, job: ServiceJob) -> None:
        """Worker-side lifecycle of one spawned job."""
        assert self._slots is not None and self._pool is not None
        try:
            async with self._slots:
                if job.cancel_requested:
                    raise asyncio.CancelledError
                job.state = RUNNING
                job.started_at = time.time()
                self._executions.inc()
                _log.info("job %s (%s) started", job.key[:12], job.name)
                record = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self._runner, job.config
                )
            job.finished_at = time.time()
            job.head = protocol.result_head(record)
            job.record = record
            job.state = DONE
            self.metrics.histogram("service.job.seconds", base=0.01).observe(
                job.wall_time or 0.0
            )
            try:
                await self._store_call(self.store.put, job.key, record, head=job.head)
            except OSError as error:
                # The result is correct and in memory: serve it from there.
                _log.warning(
                    "job %s (%s) done but not stored: %s", job.key[:12], job.name, error
                )
        except asyncio.CancelledError:
            job.finished_at = time.time()
            job.state = CANCELLED
            job.error = "cancelled before execution"
        except Exception as error:
            job.finished_at = time.time()
            job.state = FAILED
            job.error = f"{type(error).__name__}: {error}"
            _log.warning("job %s (%s) failed: %s", job.key[:12], job.name, job.error)
        finally:
            job.done.set()

    @staticmethod
    def _finalize_unstarted_cancel(job: ServiceJob) -> None:
        """Settle a job whose coroutine was cancelled before it ever ran.

        ``Task.cancel()`` on a task that has not had its first event-loop
        step (pipelined submit+cancel on one connection hits this) destroys
        the coroutine without executing it — :meth:`_run_job`'s ``finally``
        never runs, so the CANCELLED transition and ``done`` signal must
        happen here.  A job whose coroutine did run has ``done`` set by the
        time its task completes, making this a no-op.
        """
        if job.done.is_set():
            return
        if job.task is None or not job.task.done():
            return
        job.finished_at = time.time()
        job.state = CANCELLED
        job.error = "cancelled before execution"
        job.done.set()

    async def _job_response(
        self, op: str, job: ServiceJob, how: str, fmt: str
    ) -> Dict[str, Any]:
        """The response for one job in its current state.

        A detailed reply on a store-served entry reads the record back; if
        the store no longer has it (evicted, deleted, damaged) the reply is
        ``not_found`` and the entry is dropped, so a resubmission runs the
        configuration again.
        """
        fields: Dict[str, Any] = dict(job.summary())
        # ``source`` says how the daemon first learned the answer; ``via``
        # says how *this* request was resolved (spawned / attached to an
        # in-flight run / already finished this session / read from store).
        fields["via"] = how
        fields["coalesced"] = how == "attached"
        if job.state == DONE:
            if job.record is not None or fmt != "detailed":
                payload = protocol.result_payload(job.head, fmt, job.record)
            else:
                payload = await self._stored_payload(job.key, fmt)
            if payload is None:
                if self.jobs.get(job.key) is job:
                    del self.jobs[job.key]
                return protocol.error_response(
                    op, "not_found", f"stored result for key {job.key!r} is gone",
                    key=job.key,
                )
            fields.update(payload)
        return protocol.ok_response(op, **fields)

    # -- operations ----------------------------------------------------------

    async def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fmt = self._response_format(request)
        try:
            key, config = self._parse_config(request)
        except (TypeError, ValueError) as error:
            return protocol.error_response("submit", "bad_config", str(error))
        job, how = await self._submit_config(key, config)
        return await self._job_response("submit", job, how, fmt)

    async def _op_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fmt = self._response_format(request)
        configs = request.get("configs")
        if not isinstance(configs, list):
            return protocol.error_response(
                "batch", "bad_config", "'configs' must be a list of config mappings"
            )
        responses: List[Dict[str, Any]] = []
        for data in configs:
            responses.append(await self._op_submit({"config": data, "response_format": fmt}))
        return protocol.ok_response("batch", jobs=responses, count=len(responses))

    async def _op_get(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fmt = self._response_format(request)
        key = request.get("key")
        if key is None and "config" in request:
            try:
                key, _ = self._parse_config(request)
            except (TypeError, ValueError) as error:
                return protocol.error_response("get", "bad_config", str(error))
        if not isinstance(key, str):
            return protocol.error_response("get", "bad_request", "'key' or 'config' required")
        job = self.jobs.get(key)
        if job is not None:
            return await self._job_response("get", job, "lookup", fmt)
        payload = await self._stored_payload(key, fmt)
        if payload is not None:
            fields: Dict[str, Any] = {"key": key, "state": DONE, "source": "store"}
            fields.update(payload)
            return protocol.ok_response("get", **fields)
        return protocol.error_response(
            "get", "not_found", f"no job or stored result for key {key!r}", key=key
        )

    async def _op_list(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fmt = self._response_format(request)
        jobs = sorted(self.jobs.values(), key=lambda job: (job.submitted_at, job.key))
        listed: List[Dict[str, Any]] = []
        for job in jobs:
            entry = job.summary()
            if fmt == "detailed":
                entry["config"] = job.config
                if job.state == DONE:
                    entry["digest"] = job.head["digest"]
            listed.append(entry)
        return protocol.ok_response("list", jobs=listed, count=len(listed))

    async def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        key = request.get("key")
        if not isinstance(key, str):
            return protocol.error_response("cancel", "bad_request", "'key' required")
        job = self.jobs.get(key)
        if job is None:
            return protocol.error_response(
                "cancel", "not_found", f"no job for key {key!r}", key=key
            )
        if job.state == QUEUED and job.task is not None:
            job.cancel_requested = True
            job.task.cancel()
            # Await the task, not job.done: a task cancelled before its
            # first event-loop step never enters _run_job, so nothing else
            # would ever set done — waiting on it would hang this handler
            # and leave a zombie 'queued' entry that every later submit of
            # the same config coalesces onto.
            await asyncio.gather(job.task, return_exceptions=True)
            self._finalize_unstarted_cancel(job)
            return protocol.ok_response(
                "cancel", key=key, cancelled=job.state == CANCELLED, state=job.state
            )
        # Running jobs are never killed (deterministic work, nearly done);
        # finished states have nothing left to cancel.
        return protocol.ok_response("cancel", key=key, cancelled=False, state=job.state)

    async def _op_run_and_wait(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fmt = self._response_format(request)
        try:
            key, config = self._parse_config(request)
        except (TypeError, ValueError) as error:
            return protocol.error_response("run_and_wait", "bad_config", str(error))
        timeout = request.get("timeout")
        if timeout is not None:
            # Validate before submitting: a bad timeout must not spawn work.
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise _BadRequest(
                    f"'timeout' must be a number of seconds, got {timeout!r}"
                ) from None
        job, how = await self._submit_config(key, config)
        if not job.done.is_set():
            try:
                await asyncio.wait_for(
                    asyncio.shield(job.done.wait()), timeout=timeout
                )
            except asyncio.TimeoutError:
                return protocol.error_response(
                    "run_and_wait",
                    "timeout",
                    f"job still {job.state} after {timeout}s",
                    key=key,
                    state=job.state,
                )
        if job.state == DONE:
            return await self._job_response("run_and_wait", job, how, fmt)
        return protocol.error_response(
            "run_and_wait",
            "execution_failed" if job.state == FAILED else "cancelled",
            job.error or f"job ended in state {job.state}",
            key=key,
            state=job.state,
        )

    async def _op_checkpointed(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one config with periodic checkpoints; crash-resumable.

        Unlike ``submit``, the result is a streaming windowed summary (flat
        memory however long the run), not a full per-job record, so the job
        never enters the result store.  The checkpoints live under the
        store directory keyed by the config, which is what makes a repeat
        request after a daemon crash resume instead of restart.
        """
        try:
            key, config = self._parse_config(request)
        except (TypeError, ValueError) as error:
            return protocol.error_response("checkpointed", "bad_config", str(error))
        every = request.get("checkpoint_every", 3600.0)
        try:
            every = float(every)
        except (TypeError, ValueError):
            raise _BadRequest(
                f"'checkpoint_every' must be a number of simulated seconds, "
                f"got {every!r}"
            ) from None
        if not every > 0:
            raise _BadRequest(f"'checkpoint_every' must be > 0, got {every!r}")
        assert self._slots is not None and self._pool is not None
        directory = self.store.directory / "checkpoints" / key
        async with self._slots:
            self._executions.inc()
            payload = await asyncio.get_running_loop().run_in_executor(
                self._pool, _execute_checkpointed, config, every, str(directory)
            )
        return protocol.ok_response("checkpointed", key=key, **payload)

    async def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        states: Dict[str, int] = {
            QUEUED: 0,
            RUNNING: 0,
            DONE: 0,
            FAILED: 0,
            CANCELLED: 0,
        }
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return protocol.ok_response(
            "status",
            version=repro.__version__,
            protocol=protocol.PROTOCOL_VERSION,
            python=".".join(map(str, sys.version_info[:3])),
            address=self.address,
            uptime=time.time() - self.started_at if self.started_at else 0.0,
            workers=self.workers,
            jobs=states,
            executions=self.executions,
            coalesced=self.coalesced,
            store_served=self.store_served,
            requests=self.requests,
            store=(await self._store_call(self.store.stats)).to_dict(),
        )

    async def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Full metrics snapshots: daemon, store and process registries.

        ``service`` holds this daemon's counters and per-operation latency
        histograms, ``store`` the result store's hit/miss/eviction counters,
        ``process`` the process-global registry (engine counters, when the
        daemon process also ran sweeps in-process).
        """
        return protocol.ok_response(
            "metrics",
            service=self.metrics.snapshot(),
            store=self.store.metrics.snapshot(),
            process=get_registry().snapshot(),
        )

    async def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        _log.info("shutdown requested")
        self.request_shutdown()
        return protocol.ok_response("shutdown", stopping=True)
