"""The KOALA Information Service (KIS) and its providers.

KOALA's scheduler does not look at clusters directly; it consults the KIS,
which is fed by a Processor Information Provider (PIP), a Network Information
Provider (NIP) and a Replica Location Service (RLS).  Because the PIP is
polled *periodically*, the scheduler's view of idle processors can be
slightly stale — which is exactly how KOALA notices background load submitted
behind its back by local users, and why the paper's malleability manager is
triggered from the polling loop.

The poll loop is a callback chain, not a process: an URGENT relay where the
process's ``Initialize`` stood, then one timeout per poll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.cluster.multicluster import Multicluster
from repro.cluster.network import Link
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event


class ProcessorInformationProvider:
    """PIP: reports the number of idle processors of each cluster."""

    def __init__(self, multicluster: Multicluster) -> None:
        self.multicluster = multicluster
        #: Struct-of-arrays mirror of the clusters' counters; its idle view
        #: is maintained incrementally, so a poll is a plain dict copy
        #: instead of a property scan over every cluster object.
        self._state = getattr(multicluster, "state", None)

    def idle_processors(self) -> Dict[str, int]:
        """Current idle processors per cluster (ground truth at call time)."""
        if self._state is not None:
            return dict(self._state.idle_view())
        return {cluster.name: cluster.idle_processors for cluster in self.multicluster}

    def total_processors(self) -> Dict[str, int]:
        """Total processors per cluster."""
        return {cluster.name: cluster.total_processors for cluster in self.multicluster}


class NetworkInformationProvider:
    """NIP: reports link characteristics between sites."""

    def __init__(self, multicluster: Multicluster) -> None:
        self.multicluster = multicluster

    def link(self, source: str, destination: str) -> Link:
        """Current link estimate between two sites."""
        return self.multicluster.network.link(source, destination)

    def transfer_time(self, source: str, destination: str, megabytes: float) -> float:
        """Estimated transfer time of *megabytes* MB between two sites."""
        return self.multicluster.network.transfer_time(source, destination, megabytes)


class ReplicaLocationService:
    """RLS: maps logical file names to the clusters storing replicas."""

    def __init__(self, multicluster: Multicluster) -> None:
        self.multicluster = multicluster

    def sites(self, file_name: str) -> Set[str]:
        """Clusters holding a replica of *file_name*."""
        return self.multicluster.replica_sites(file_name)

    def register(self, file_name: str, cluster_name: str) -> None:
        """Register a new replica location."""
        self.multicluster.register_replica(file_name, cluster_name)


@dataclass
class KisSnapshot:
    """One poll of the information service."""

    time: float
    idle_processors: Dict[str, int]

    def total_idle(self) -> int:
        """System-wide idle processors at the time of the snapshot."""
        return sum(self.idle_processors.values())


class KoalaInformationService:
    """The KIS: periodically polled resource status used by the scheduler.

    Parameters
    ----------
    env, multicluster:
        Simulation environment and monitored system.
    poll_interval:
        Seconds between PIP polls.  The scheduler and the malleability
        manager react to each poll (subscribe with :meth:`on_poll`).
    first_poll_at:
        Absolute time of the first poll (default ``now + poll_interval``).
        The shard engine puts each window's first poll on the serial run's
        poll grid with it.

    A checkpoint needs nothing from the service: its pending poll timeout is
    pickled with the rest of the run.
    """

    def __init__(
        self,
        env: Environment,
        multicluster: Multicluster,
        *,
        poll_interval: float = 15.0,
        first_poll_at: Optional[float] = None,
    ) -> None:
        if not poll_interval > 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval!r}")
        self.env = env
        self.multicluster = multicluster
        self.poll_interval = float(poll_interval)
        self._first_poll_at = None if first_poll_at is None else float(first_poll_at)
        self.pip = ProcessorInformationProvider(multicluster)
        self.nip = NetworkInformationProvider(multicluster)
        self.rls = ReplicaLocationService(multicluster)
        self._snapshot = KisSnapshot(time=env.now, idle_processors=self.pip.idle_processors())
        self._subscribers: List[Callable[[KisSnapshot], None]] = []
        #: Immutable snapshot of the subscriber list, rebuilt on ``on_poll``;
        #: the poll loop iterates it without a defensive per-poll copy.
        self._subscriber_snapshot: tuple = ()
        self._start()

    # -- polling --------------------------------------------------------------

    def _start(self) -> None:
        """Start the chain: an URGENT relay to its first link."""
        self.env.relay(self._first_poll, URGENT)

    def on_poll(self, callback: Callable[[KisSnapshot], None]) -> None:
        """Register *callback* to be invoked after every PIP poll."""
        self._subscribers.append(callback)
        self._subscriber_snapshot = tuple(self._subscribers)

    def poll_now(self) -> KisSnapshot:
        """Force an immediate poll (used when jobs finish, to react faster)."""
        self._snapshot = snapshot = KisSnapshot(
            time=self.env.now, idle_processors=self.pip.idle_processors()
        )
        for callback in self._subscriber_snapshot:
            callback(snapshot)
        return snapshot

    def _first_poll(self, _event: Event) -> None:
        first = self._first_poll_at
        self._arm_poll(self.env.now + self.poll_interval if first is None else first)

    def _poll_link(self, _event: Event) -> None:
        """Poll, then arm the next poll: one link of the poll chain."""
        self.poll_now()
        self._arm_poll(self.env.now + self.poll_interval)

    def _arm_poll(self, at: float) -> None:
        self.env.timeout_at(at).callbacks.append(self._poll_link)

    # -- queries ---------------------------------------------------------------

    @property
    def snapshot(self) -> KisSnapshot:
        """The most recent snapshot (possibly stale by up to ``poll_interval``)."""
        return self._snapshot

    def idle_processors(self, fresh: bool = False) -> Dict[str, int]:
        """Idle processors per cluster.

        With ``fresh=True`` the PIP is queried directly (the scheduler does
        this right before claiming to reduce claim failures); otherwise the
        last snapshot is returned.
        """
        if fresh:
            return self.pip.idle_processors()
        return dict(self._snapshot.idle_processors)

    def idle_in(self, cluster_name: str, fresh: bool = False) -> int:
        """Idle processors of one cluster."""
        return self.idle_processors(fresh=fresh).get(cluster_name, 0)
