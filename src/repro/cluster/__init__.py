"""Multicluster execution substrate.

The paper's experiments run on the DAS-3, a Dutch wide-area system of five
clusters (Table I) in which each cluster is managed by the Sun Grid Engine in
space-shared mode with node-granular allocation, jobs are started through
Globus GRAM, and local users may submit jobs directly to a cluster's resource
manager, bypassing the KOALA grid scheduler entirely.

This package simulates that substrate:

* :class:`~repro.cluster.cluster.Cluster` — a pool of nodes with atomic
  allocate/release and a usage log behind its usage time series;
* :class:`~repro.cluster.local_rm.LocalResourceManager` — the SGE-like
  space-shared FCFS manager through which *local* (background) jobs arrive;
* :class:`~repro.cluster.gram.GramEndpoint` — the job-submission interface
  used by KOALA runners, with configurable submission/claim latencies and the
  faster "stub re-use" path the MRunner relies on;
* :class:`~repro.cluster.background.BackgroundLoadGenerator` — synthetic
  local users generating background load that bypasses KOALA;
* :class:`~repro.cluster.network.NetworkModel` — inter-cluster
  latency/bandwidth estimates used by the file-aware and communication-aware
  placement policies;
* :class:`~repro.cluster.multicluster.Multicluster` — the whole system;
* :func:`~repro.cluster.das3.das3_multicluster` — the DAS-3 preset of
  Table I.
"""

from repro.cluster.allocation import Allocation, AllocationError
from repro.cluster.cluster import Cluster
from repro.cluster.local_rm import LocalJob, LocalResourceManager
from repro.cluster.gram import GramEndpoint, GramJob, GramSubmissionError
from repro.cluster.background import BackgroundLoadGenerator, BackgroundLoadSpec
from repro.cluster.network import Link, NetworkModel
from repro.cluster.multicluster import Multicluster
from repro.cluster.das3 import DAS3_CLUSTERS, ClusterSpec, das3_multicluster

__all__ = [
    "Allocation",
    "AllocationError",
    "BackgroundLoadGenerator",
    "BackgroundLoadSpec",
    "Cluster",
    "ClusterSpec",
    "DAS3_CLUSTERS",
    "GramEndpoint",
    "GramJob",
    "GramSubmissionError",
    "Link",
    "LocalJob",
    "LocalResourceManager",
    "Multicluster",
    "NetworkModel",
    "das3_multicluster",
]
