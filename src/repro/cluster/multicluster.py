"""The multicluster system: clusters + their per-cluster services.

A :class:`Multicluster` bundles, for each member cluster, the cluster pool
itself, its SGE-like local resource manager, its GRAM endpoint and (possibly)
a background-load generator, plus the shared wide-area network model and a
replica catalogue of file locations for the Close-to-Files policy.  It is the
single object the KOALA scheduler needs a reference to.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional


from repro.cluster.background import BackgroundLoadGenerator, BackgroundLoadSpec
from repro.cluster.cluster import Cluster
from repro.cluster.gram import GramEndpoint
from repro.cluster.local_rm import LocalResourceManager
from repro.cluster.network import NetworkModel
from repro.cluster.state import ClusterState
from repro.sim.core import Environment
from repro.sim.monitor import merge_step_functions
from repro.sim.rng import RandomStreams


class Multicluster:
    """A collection of clusters and their per-cluster services.

    Parameters
    ----------
    env:
        Simulation environment.
    network:
        Wide-area network model (defaults to a fresh :class:`NetworkModel`).
    streams:
        Named random streams; used for GRAM latency jitter and background
        load.  A deterministic default is created when omitted.
    gram_submission_latency / gram_recruit_latency:
        Latency parameters applied to every cluster's GRAM endpoint.
    gram_latency_jitter:
        Relative jitter of those latencies (``0`` makes GRAM fully
        deterministic and draws nothing from the random streams, which is
        what sharded replay relies on).
    gram_concurrency:
        Maximum simultaneous GRAM submissions per cluster (``None`` =
        unlimited); see :class:`~repro.cluster.gram.GramEndpoint`.
    local_backfilling:
        Whether the local resource managers backfill small local jobs past a
        blocked queue head (common in production SGE configurations).
    """

    def __init__(
        self,
        env: Environment,
        *,
        network: Optional[NetworkModel] = None,
        streams: Optional[RandomStreams] = None,
        gram_submission_latency: float = 5.0,
        gram_recruit_latency: float = 0.5,
        gram_latency_jitter: float = 0.2,
        gram_concurrency: Optional[int] = None,
        local_backfilling: bool = False,
    ) -> None:
        self.env = env
        self.network = network or NetworkModel()
        self.streams = streams if streams is not None else RandomStreams(seed=0)
        self.gram_submission_latency = gram_submission_latency
        self.gram_recruit_latency = gram_recruit_latency
        self.gram_latency_jitter = gram_latency_jitter
        self.gram_concurrency = gram_concurrency
        self.local_backfilling = local_backfilling
        self._clusters: Dict[str, Cluster] = {}
        self._local_rms: Dict[str, LocalResourceManager] = {}
        self._gram: Dict[str, GramEndpoint] = {}
        self._background: Dict[str, BackgroundLoadGenerator] = {}
        #: Struct-of-arrays mirror of the member clusters' capacity counters
        #: (see :mod:`repro.cluster.state`); the KIS, the scheduler and the
        #: placement fast paths read it instead of scanning cluster objects.
        self.state = ClusterState()
        self._cluster_names: List[str] = []
        #: File replica catalogue: file name -> set of cluster names holding it.
        self.replica_catalogue: Dict[str, set] = {}

    # -- construction ----------------------------------------------------------

    def add_cluster(
        self,
        name: str,
        processors: int,
        *,
        location: str = "",
        interconnect: str = "",
        background: Optional[BackgroundLoadSpec] = None,
    ) -> Cluster:
        """Create and register a cluster with its local services."""
        if name in self._clusters:
            raise ValueError(f"cluster {name!r} already exists")
        cluster = Cluster(
            self.env, name, processors, location=location, interconnect=interconnect
        )
        self._clusters[name] = cluster
        self._cluster_names.append(name)
        cluster.bind_state(self.state, self.state.register(name, processors))
        self._local_rms[name] = LocalResourceManager(
            self.env, cluster, backfilling=self.local_backfilling
        )
        self._gram[name] = GramEndpoint(
            self.env,
            cluster,
            submission_latency=self.gram_submission_latency,
            recruit_latency=self.gram_recruit_latency,
            latency_jitter=self.gram_latency_jitter,
            # With zero jitter the endpoint never draws, so skip lane
            # instantiation entirely — checkpointed runs then carry no
            # per-cluster GRAM lanes in their RNG state.
            rng=(
                self.streams[f"gram:{name}"] if self.gram_latency_jitter else None
            ),
            max_concurrent_submissions=self.gram_concurrency,
        )
        if background is not None and background.enabled:
            self._background[name] = BackgroundLoadGenerator(
                self.env,
                self._local_rms[name],
                background,
                self.streams[f"background:{name}"],
            )
        return cluster

    def register_replica(self, file_name: str, cluster_name: str) -> None:
        """Record that *file_name* is stored at *cluster_name* (for CF placement)."""
        if cluster_name not in self._clusters:
            raise KeyError(f"unknown cluster {cluster_name!r}")
        self.replica_catalogue.setdefault(file_name, set()).add(cluster_name)

    def replica_sites(self, file_name: str) -> set:
        """Cluster names holding a replica of *file_name* (empty set if unknown)."""
        return set(self.replica_catalogue.get(file_name, set()))

    # -- lookup ----------------------------------------------------------------

    @property
    def clusters(self) -> List[Cluster]:
        """All member clusters, in registration order."""
        return list(self._clusters.values())

    @property
    def cluster_names(self) -> List[str]:
        """Names of all member clusters, in registration order.

        The returned list is shared (clusters are never removed); callers
        that want to mutate it must copy.
        """
        return self._cluster_names

    def cluster(self, name: str) -> Cluster:
        """The cluster registered under *name*."""
        try:
            return self._clusters[name]
        except KeyError:
            raise KeyError(f"unknown cluster {name!r}; known: {self.cluster_names}") from None

    def local_rm(self, name: str) -> LocalResourceManager:
        """The local resource manager of cluster *name*."""
        return self._local_rms[name]

    def gram(self, name: str) -> GramEndpoint:
        """The GRAM endpoint of cluster *name*."""
        return self._gram[name]

    def background(self, name: str) -> Optional[BackgroundLoadGenerator]:
        """The background-load generator of cluster *name* (or ``None``)."""
        return self._background.get(name)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self._clusters.values())

    def __len__(self) -> int:
        return len(self._clusters)

    def __contains__(self, name: str) -> bool:
        return name in self._clusters

    # -- aggregate state ---------------------------------------------------------

    @property
    def total_processors(self) -> int:
        """Total number of processors over all clusters."""
        return sum(c.total_processors for c in self._clusters.values())

    @property
    def idle_processors(self) -> int:
        """Total number of idle processors over all clusters."""
        return sum(c.idle_processors for c in self._clusters.values())

    @property
    def available_processors(self) -> int:
        """Total number of up (non-failed) processors over all clusters."""
        return sum(c.available_processors for c in self._clusters.values())

    @property
    def used_processors(self) -> int:
        """Total number of busy processors over all clusters."""
        return sum(c.used_processors for c in self._clusters.values())

    def utilization_series(self, kind: str = "all"):
        """Summed usage step function over all clusters.

        ``kind`` selects ``"all"``, ``"grid"`` (KOALA-managed only) or
        ``"local"`` (background only) usage.  Returns ``(times, values)``.
        """
        if kind == "all":
            series = (c.usage_series for c in self._clusters.values())
        elif kind == "grid":
            series = (c.grid_usage_series for c in self._clusters.values())
        elif kind == "local":
            series = (c.local_usage_series for c in self._clusters.values())
        else:
            raise ValueError(f"unknown usage kind {kind!r}")
        return merge_step_functions(series)

    def availability_series(self):
        """Summed step function of up (non-failed) processors over all clusters.

        Flat at :attr:`total_processors` unless a fault model drove node
        churn; the resilience metrics normalise utilization against it.
        Returns ``(times, values)``.
        """
        return merge_step_functions(
            c.availability_series for c in self._clusters.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Multicluster {len(self)} clusters, "
            f"{self.used_processors}/{self.total_processors} processors busy>"
        )
