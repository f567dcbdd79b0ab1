"""A single cluster: a pool of identical nodes with atomic allocate/release.

The experiments allocate whole nodes ("the granularity of allocation is the
node"), so a cluster is modelled as a counted pool rather than as individual
node objects.  The cluster keeps separate grid/local usage counters so the
KOALA information service can report idle processors, and the metrics layer
can attribute utilization to KOALA-managed jobs versus background load.

Every allocate and release appends one ``(time, grid, local)`` entry to the
cluster's usage log; a second change in the same instant overwrites the
instant's entry, so the log holds the last counters of each instant.  The
three usage step functions (total, grid and local) are built from the log
when they are read, which only the metrics collector and
:meth:`Multicluster.utilization_series
<repro.cluster.multicluster.Multicluster.utilization_series>` do.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.allocation import Allocation, AllocationError
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.sim.monitor import TimeSeries


class Cluster:
    """A space-shared pool of *total_processors* identical nodes.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Cluster name (e.g. ``"delft"``).
    total_processors:
        Number of allocatable nodes.
    location:
        Human-readable site name (Table I's "Location" column).
    interconnect:
        Description of the local interconnect (Table I).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        total_processors: int,
        *,
        location: str = "",
        interconnect: str = "",
    ) -> None:
        if total_processors < 1:
            raise ValueError("a cluster needs at least one processor")
        self.env = env
        self.name = name
        self.location = location or name
        self.interconnect = interconnect
        self._total = int(total_processors)
        self._used_grid = 0
        self._used_local = 0
        self._failed = 0
        self._allocations: Dict[int, Allocation] = {}
        #: ``(time, grid, local)`` after the last usage change of each
        #: instant with one (see the module doc).
        self._usage_log: List[Tuple[float, int, int]] = []
        #: Step function of the number of *available* (non-failed) processors.
        #: Flat at ``total_processors`` unless a fault model drives the
        #: cluster through :meth:`mark_failed` / :meth:`mark_repaired`.
        self.availability_series = TimeSeries(name=f"{name}:availability")
        #: Events to trigger next time processors are released (used by the
        #: local resource manager and the malleability manager to react to
        #: freed capacity without polling).
        self._release_waiters: List[Event] = []
        #: Persistent callbacks invoked on *every* release with
        #: ``(allocation)``; used by the malleability manager to account for
        #: the processors that become available over time.  A tuple, rebuilt
        #: by :meth:`add_release_listener`, so a release iterates it uncopied.
        self._release_listeners: Tuple = ()
        #: Bound struct-of-arrays mirror (see :meth:`bind_state`); ``None``
        #: for standalone clusters outside a multicluster.
        self._state = None
        self._state_index = -1
        self._record_usage()
        self.availability_series.record(self.env.now, self._total)

    def bind_state(self, state, index: int) -> None:
        """Mirror this cluster's counters into column *index* of *state*.

        Called by :class:`~repro.cluster.multicluster.Multicluster` at
        registration; every counter mutation afterwards updates the
        struct-of-arrays view incrementally.
        """
        self._state = state
        self._state_index = index
        state.update_usage(index, self._used_grid, self._used_local)
        state.update_failed(index, self._failed)

    # -- capacity bookkeeping ------------------------------------------------

    @property
    def total_processors(self) -> int:
        """Total number of allocatable processors (nodes)."""
        return self._total

    @property
    def used_processors(self) -> int:
        """Processors currently allocated (grid + local)."""
        return self._used_grid + self._used_local

    @property
    def grid_processors(self) -> int:
        """Processors currently allocated to KOALA-managed jobs."""
        return self._used_grid

    @property
    def local_processors(self) -> int:
        """Processors currently allocated to local background jobs."""
        return self._used_local

    @property
    def failed_processors(self) -> int:
        """Processors currently down (unavailable to any allocation)."""
        return self._failed

    @property
    def available_processors(self) -> int:
        """Processors currently up (total minus failed)."""
        return self._total - self._failed

    @property
    def idle_processors(self) -> int:
        """Processors currently idle (up and unallocated).

        Never negative: in the short window between a failure striking busy
        nodes and the victim allocations being torn down, failed + used may
        transiently exceed the total, and the clamp keeps every placement and
        grow decision safe during it.
        """
        # Computed inline (not via ``used_processors``): this property is the
        # single most queried quantity of a run — every KIS poll and every
        # placement/grow decision reads it for every cluster.
        idle = self._total - self._failed - self._used_grid - self._used_local
        return idle if idle > 0 else 0

    @property
    def utilization(self) -> float:
        """Fraction of the cluster currently busy."""
        return self.used_processors / self._total

    @property
    def usage_series(self) -> TimeSeries:
        """Step function of the total number of busy processors."""
        return self._usage_series("usage", [grid + local for _, grid, local in self._usage_log])

    @property
    def grid_usage_series(self) -> TimeSeries:
        """Step function of processors busy on behalf of KOALA-managed jobs."""
        return self._usage_series("grid-usage", [grid for _, grid, _ in self._usage_log])

    @property
    def local_usage_series(self) -> TimeSeries:
        """Step function of processors busy on behalf of local background jobs."""
        return self._usage_series("local-usage", [local for _, _, local in self._usage_log])

    def _usage_series(self, kind: str, values: List[int]) -> TimeSeries:
        return TimeSeries(
            f"{self.name}:{kind}",
            [float(time) for time, _, _ in self._usage_log],
            [float(value) for value in values],
        )

    @property
    def active_allocations(self) -> List[Allocation]:
        """Allocations currently held, oldest first.

        Grant times are non-decreasing and the allocation map preserves
        insertion order, so registration order *is* oldest-first (a stable
        sort on ``granted_at`` would return exactly this list).
        """
        return list(self._allocations.values())

    # -- allocate / release ----------------------------------------------------

    def try_allocate(self, processors: int, owner: str, kind: str = "grid") -> Optional[Allocation]:
        """Atomically allocate *processors* nodes, or return ``None`` if unavailable."""
        if processors < 1:
            raise AllocationError("cannot allocate fewer than one processor")
        # ``idle_processors`` inlined; its zero clamp cannot change the
        # outcome for a request of at least one processor.
        if processors > self._total - self._failed - self._used_grid - self._used_local:
            return None
        allocation = Allocation(
            cluster=self,
            processors=int(processors),
            owner=owner,
            kind=kind,
            granted_at=self.env._now,
        )
        if kind == "grid":
            self._used_grid += processors
        else:
            self._used_local += processors
        self._allocations[allocation.allocation_id] = allocation
        if self._state is not None:
            self._state.update_usage(self._state_index, self._used_grid, self._used_local)
        self._record_usage()
        return allocation

    def allocate(self, processors: int, owner: str, kind: str = "grid") -> Allocation:
        """Allocate *processors* nodes or raise :class:`AllocationError`."""
        allocation = self.try_allocate(processors, owner, kind)
        if allocation is None:
            raise AllocationError(
                f"cluster {self.name!r} has only {self.idle_processors} idle processors, "
                f"cannot allocate {processors}"
            )
        return allocation

    def release(self, allocation: Allocation) -> None:
        """Release a previously granted allocation."""
        if allocation.allocation_id not in self._allocations:
            raise AllocationError(f"{allocation!r} is not held on cluster {self.name!r}")
        del self._allocations[allocation.allocation_id]
        if allocation.kind == "grid":
            self._used_grid -= allocation.processors
        else:
            self._used_local -= allocation.processors
        allocation.released_at = self.env.now
        if self._state is not None:
            self._state.update_usage(self._state_index, self._used_grid, self._used_local)
        self._record_usage()
        for listener in self._release_listeners:
            listener(allocation)
        self._notify_release()

    def when_released(self) -> Event:
        """Return an event that triggers the next time processors are released."""
        event = Event(self.env)
        self._release_waiters.append(event)
        return event

    def add_release_listener(self, callback) -> None:
        """Invoke ``callback(allocation)`` every time an allocation is released."""
        self._release_listeners += (callback,)

    # -- dynamic availability (fault injection) -------------------------------

    def mark_failed(self, processors: int) -> None:
        """Take *processors* nodes down (they stop being allocatable).

        Pure capacity bookkeeping: the caller (the fault injector) is
        responsible for tearing down any allocation whose nodes died —
        marking first and releasing second keeps the idle count from ever
        overstating capacity while victims are being dismantled.
        """
        if processors < 0:
            raise ValueError("cannot fail a negative number of processors")
        if self._failed + processors > self._total:
            raise ValueError(
                f"cluster {self.name!r} has {self._total - self._failed} processors "
                f"up, cannot fail {processors}"
            )
        if processors == 0:
            return
        self._failed += processors
        if self._state is not None:
            self._state.update_failed(self._state_index, self._failed)
        self.availability_series.record(self.env.now, self._total - self._failed)

    def mark_repaired(self, processors: int) -> None:
        """Bring *processors* previously failed nodes back into the pool."""
        if processors < 0:
            raise ValueError("cannot repair a negative number of processors")
        if processors > self._failed:
            raise ValueError(
                f"cluster {self.name!r} has only {self._failed} processors down, "
                f"cannot repair {processors}"
            )
        if processors == 0:
            return
        self._failed -= processors
        if self._state is not None:
            self._state.update_failed(self._state_index, self._failed)
        self.availability_series.record(self.env.now, self._total - self._failed)
        # Repaired capacity behaves like released capacity to anyone waiting
        # for processors (the local resource manager, the malleability
        # manager's release hooks do not apply: nothing was released).
        self._notify_release()

    # -- internals -------------------------------------------------------------

    def _notify_release(self) -> None:
        waiters, self._release_waiters = self._release_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed(self.idle_processors)

    def _record_usage(self) -> None:
        now = self.env._now
        log = self._usage_log
        if log and log[-1][0] == now:
            log[-1] = (now, self._used_grid, self._used_local)
        else:
            log.append((now, self._used_grid, self._used_local))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        failed = f", failed={self._failed}" if self._failed else ""
        return (
            f"<Cluster {self.name!r} {self.used_processors}/{self._total} busy "
            f"(grid={self._used_grid}, local={self._used_local}{failed})>"
        )
