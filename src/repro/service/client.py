"""Synchronous client of the experiment daemon.

A thin blocking wrapper over the newline-delimited JSON protocol: one
socket, one request line out, one response line in.  Thread-safety is by
confinement — use one :class:`ServiceClient` per thread (they are cheap;
the daemon multiplexes any number of connections).

    from repro.service import ServiceClient

    with ServiceClient(socket_path="/tmp/repro.sock") as client:
        client.status()
        response = client.run_and_wait(
            {"workload": "Wm", "job_count": 40, "seed": 0}
        )
        print(response["digest"], response["metrics"])
"""

from __future__ import annotations

import os
import socket
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.service import protocol

ConfigLike = Union[Dict[str, Any], "ExperimentConfig"]  # noqa: F821 - doc alias

#: Environment variable naming the default daemon socket path.
SOCKET_ENV = "REPRO_SERVICE_SOCKET"


def default_socket_path() -> Path:
    """``$REPRO_SERVICE_SOCKET`` or a per-user path under the temp dir."""
    override = os.environ.get(SOCKET_ENV)
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-service-{uid}.sock"


class ServiceError(RuntimeError):
    """A daemon-reported failure (``ok: false``), with its protocol code."""

    def __init__(self, code: str, message: str, response: Dict[str, Any]) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.response = response


def _config_dict(config: ConfigLike) -> Dict[str, Any]:
    """Coerce a config argument to the wire mapping."""
    to_dict = getattr(config, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if isinstance(config, dict):
        return config
    raise TypeError(f"config must be a mapping or ExperimentConfig, got {type(config)!r}")


class ServiceClient:
    """Blocking client for one experiment daemon.

    Parameters
    ----------
    socket_path:
        Unix socket of the daemon (the default transport).  When neither
        this nor *host* is given, :func:`default_socket_path`
        is used.
    host, port:
        Localhost TCP alternative to the Unix socket.
    timeout:
        Socket timeout in seconds for connect and for each response.
        ``run_and_wait`` overrides it per call so a long simulation does
        not trip the transport timeout.
    """

    def __init__(
        self,
        *,
        socket_path: Union[str, Path, None] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 30.0,
    ) -> None:
        if host is not None and port is None:
            raise ValueError("host requires port")
        self.socket_path = None if host is not None else Path(socket_path or default_socket_path())
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None

    # -- transport -----------------------------------------------------------

    def connect(self) -> "ServiceClient":
        """Open the connection (idempotent; requests connect lazily too)."""
        if self._sock is not None:
            return self
        if self.host is not None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(str(self.socket_path))
            except BaseException:
                sock.close()
                raise
        self._sock = sock
        self._reader = sock.makefile("rb")
        return self

    def close(self) -> None:
        """Close the connection (safe to call twice)."""
        reader, self._reader = self._reader, None
        sock, self._sock = self._sock, None
        if reader is not None:
            try:
                reader.close()
            except OSError:
                pass
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def wait_until_ready(self, *, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Poll until the daemon accepts connections (for just-started daemons)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.connect()
                return
            except OSError:
                self.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    # -- the protocol --------------------------------------------------------

    #: Distinguishes "no override" from "block forever" (``None``).
    _DEFAULT_TIMEOUT = object()

    def request(
        self,
        op: str,
        *,
        transport_timeout: Any = _DEFAULT_TIMEOUT,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Send one request, block for its response, raise on ``ok: false``.

        *transport_timeout* overrides the socket timeout for this request
        only (it is a client-side knob, distinct from any ``timeout`` *wire
        field* in ``**fields``); pass ``None`` to block indefinitely
        (``run_and_wait`` without a deadline does).  A transport error,
        timeouts included, closes the connection before it propagates, so
        the next request reconnects.
        """
        self.connect()
        assert self._sock is not None and self._reader is not None
        message: Dict[str, Any] = {"op": op}
        message.update(fields)
        override = transport_timeout is not self._DEFAULT_TIMEOUT
        if override:
            self._sock.settimeout(transport_timeout)
        try:
            self._sock.sendall(protocol.encode(message))
            line = self._reader.readline()
        except OSError:
            # A timed-out or broken socket refuses every later read: drop
            # it, so the next request reconnects instead of failing too.
            self.close()
            raise
        finally:
            if override and self._sock is not None:
                self._sock.settimeout(self.timeout)
        if not line:
            self.close()
            raise ConnectionError("daemon closed the connection without responding")
        response = protocol.decode(line)
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise ServiceError(
                str(error.get("code", "unknown")),
                str(error.get("message", "unspecified error")),
                response,
            )
        return response

    # -- operations ----------------------------------------------------------

    def submit(
        self, config: ConfigLike, *, response_format: str = "concise"
    ) -> Dict[str, Any]:
        """Submit one config; returns immediately with its current state."""
        return self.request(
            "submit", config=_config_dict(config), response_format=response_format
        )

    def batch(
        self, configs: Sequence[ConfigLike], *, response_format: str = "concise"
    ) -> Dict[str, Any]:
        """Submit many configs in one round-trip."""
        return self.request(
            "batch",
            configs=[_config_dict(config) for config in configs],
            response_format=response_format,
        )

    def get(
        self,
        key: Optional[str] = None,
        *,
        config: Optional[ConfigLike] = None,
        response_format: str = "concise",
    ) -> Dict[str, Any]:
        """Look a result up by key or by config."""
        fields: Dict[str, Any] = {"response_format": response_format}
        if key is not None:
            fields["key"] = key
        if config is not None:
            fields["config"] = _config_dict(config)
        return self.request("get", **fields)

    def list(self, *, response_format: str = "concise") -> List[Dict[str, Any]]:
        """Every job the daemon knows about, oldest first."""
        return self.request("list", response_format=response_format)["jobs"]

    def cancel(self, key: str) -> Dict[str, Any]:
        """Cancel a queued job (running jobs report ``cancelled: false``)."""
        return self.request("cancel", key=key)

    def run_and_wait(
        self,
        config: ConfigLike,
        *,
        timeout: Optional[float] = None,
        response_format: str = "concise",
    ) -> Dict[str, Any]:
        """Submit (or attach to) *config* and block until its result is ready.

        *timeout* bounds the daemon-side wait; the transport timeout is
        stretched to match, so a long simulation never trips the socket.
        """
        fields: Dict[str, Any] = {
            "config": _config_dict(config),
            "response_format": response_format,
        }
        if timeout is not None:
            fields["timeout"] = float(timeout)
        transport_timeout = None if timeout is None else float(timeout) + self.timeout
        return self.request(
            "run_and_wait", transport_timeout=transport_timeout, **fields
        )

    def status(self) -> Dict[str, Any]:
        """Daemon health: pool, job-table and store statistics."""
        return self.request("status")

    def metrics(self) -> Dict[str, Any]:
        """Full metrics snapshots (daemon, store and process registries)."""
        return self.request("metrics")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to stop (responds before stopping)."""
        response = self.request("shutdown")
        self.close()
        return response
