"""A counted resource for process-based simulation code.

:class:`Resource` has a fixed integer capacity; processes *request* a usage
slot and *release* it later, and requests may be used as context managers.
No program module uses it: the cluster layer runs callback chains, not
processes.  It stays for process-based code written against the kernel,
such as the reference cluster classes of the test suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class Put(Event):
    """Base class for put-style resource events (request/put)."""

    __slots__ = ("resource", "proc")

    def __init__(self, resource: "BaseResource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.proc = resource.env.active_process
        resource.put_queue.append(self)
        self.callbacks.append(resource._trigger_get)
        resource._trigger_put(None)

    def __enter__(self) -> "Put":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Withdraw the pending operation (or undo it, for requests)."""
        if not self.triggered:
            self.resource.put_queue.remove(self)


class Get(Event):
    """Base class for get-style resource events (release/get)."""

    __slots__ = ("resource", "proc")

    def __init__(self, resource: "BaseResource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.proc = resource.env.active_process
        resource.get_queue.append(self)
        self.callbacks.append(resource._trigger_put)
        resource._trigger_get(None)

    def __enter__(self) -> "Get":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Withdraw the pending operation."""
        if not self.triggered:
            self.resource.get_queue.remove(self)


class BaseResource:
    """Queue and trigger machinery behind :class:`Resource`."""

    def __init__(self, env: "Environment", capacity: float) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.put_queue: list[Put] = []
        self.get_queue: list[Get] = []

    @property
    def capacity(self) -> float:
        """Maximum capacity of the resource."""
        return self._capacity

    # The following two methods walk the waiting queues and trigger any
    # operation that can now be satisfied.

    def _do_put(self, event: Put) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _do_get(self, event: Get) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _trigger_put(self, get_event: Optional[Get]) -> None:
        idx = 0
        while idx < len(self.put_queue):
            put_event = self.put_queue[idx]
            proceed = self._do_put(put_event)
            if put_event.triggered:
                self.put_queue.pop(idx)
            else:
                idx += 1
            if not proceed:
                break

    def _trigger_get(self, put_event: Optional[Put]) -> None:
        idx = 0
        while idx < len(self.get_queue):
            get_event = self.get_queue[idx]
            proceed = self._do_get(get_event)
            if get_event.triggered:
                self.get_queue.pop(idx)
            else:
                idx += 1
            if not proceed:
                break


class Request(Put):
    """Request one usage slot of a :class:`Resource`.

    The event succeeds once a slot is granted.  Exiting the ``with`` block (or
    calling :meth:`cancel` after the grant) releases the slot again.
    """

    __slots__ = ()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            super().__exit__(exc_type, exc_value, traceback)


class Release(Get):
    """Release a previously granted :class:`Request` of a :class:`Resource`."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        self.request = request
        super().__init__(resource)


class Resource(BaseResource):
    """A counted resource with *capacity* usage slots.

    Examples
    --------
    >>> env = Environment(); res = Resource(env, capacity=2)
    >>> def user(env, res):
    ...     with res.request() as req:
    ...         yield req
    ...         yield env.timeout(5)
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        #: Requests currently holding a slot.
        self.users: list[Request] = []
        #: Requests waiting for a slot (alias of ``put_queue``).
        self.queue = self.put_queue

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Request a usage slot."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release the slot held by *request*."""
        return Release(self, request)

    def _do_put(self, event: Request) -> bool:
        if len(self.users) < self.capacity:
            self.users.append(event)
            event.succeed()
        return True

    def _do_get(self, event: Release) -> bool:
        try:
            self.users.remove(event.request)
        except ValueError:
            pass
        event.succeed()
        return True
