"""Struct-of-arrays hot state of a multicluster.

Every KIS poll, every placement and every grow decision asks the same
question: *how many processors are idle per cluster, minus the pending
claims?*  :class:`ClusterState` keeps the answer current instead of
rebuilding it per read: the per-cluster capacity counters live in plain
``int`` columns (**struct of arrays**), updated incrementally at the four
mutation points of a cluster (allocate, release, fail, repair) plus the
claim ledger's reserve/settle/adjust.  The derived quantities every hot
reader wants — the idle view and the claim-adjusted *effective* idle view —
are maintained in place at the same time, so reads are plain attribute
access, and the Worst-Fit processor selection is one loop over the
effective column.  The columns hold one entry per cluster (five on DAS-3),
where a Python loop over ints is cheaper than any array call.

Invariants
----------
* ``idle[i] == max(0, total[i] - failed[i] - used_grid[i] - used_local[i])``
  after every mutation (the clamp mirrors
  :attr:`repro.cluster.cluster.Cluster.idle_processors`);
* ``effective[i] == max(0, idle[i] - pending[i])`` after every mutation
  (mirrors :meth:`repro.koala.claiming.ClaimLedger.effective_idle`);
* :meth:`idle_view` and :meth:`effective_view` return **shared, read-only**
  dicts that always reflect the invariants above.  Callers that retain or
  mutate a view must copy it (``dict(view)``); the KIS snapshot does exactly
  that, which is what preserves its deliberate staleness semantics.

The cluster objects remain the source of truth for their own counters; the
state is a bound mirror (see :meth:`repro.cluster.cluster.Cluster.bind_state`),
so standalone clusters — unit tests construct them without a multicluster —
work unchanged with no state attached.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ClusterState:
    """Incrementally maintained per-cluster capacity columns.

    Columns are lists of ints indexed by cluster registration order;
    :meth:`register` returns the index a cluster (or the claim ledger) uses
    for its updates.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.total: List[int] = []
        self.failed: List[int] = []
        self.used_grid: List[int] = []
        self.used_local: List[int] = []
        self.pending: List[int] = []
        #: Derived column: idle (clamped at zero) processors per cluster.
        self.idle: List[int] = []
        #: Derived column: idle minus pending claims (clamped at zero).
        self.effective: List[int] = []
        #: Shared read-only dict views of the derived columns (see module doc).
        self._idle_view: Dict[str, int] = {}
        self._effective_view: Dict[str, int] = {}
        #: Cluster indices in name order — the Worst-Fit tie-break order.
        self._name_order: List[int] = []

    # -- registration ---------------------------------------------------------

    def register(self, name: str, total_processors: int) -> int:
        """Add a cluster column; returns its index."""
        if name in self._index:
            raise ValueError(f"cluster {name!r} already registered")
        index = len(self.names)
        self.names.append(name)
        self._index[name] = index
        self.total.append(int(total_processors))
        for column in (self.failed, self.used_grid, self.used_local,
                       self.pending, self.idle, self.effective):
            column.append(0)
        self._name_order = sorted(range(len(self.names)), key=self.names.__getitem__)
        self.update_usage(index, 0, 0)
        return index

    def index_of(self, name: str) -> int:
        """Column index of cluster *name*."""
        return self._index[name]

    def __len__(self) -> int:
        return len(self.names)

    # -- mutations ------------------------------------------------------------

    def update_usage(self, index: int, used_grid: int, used_local: int) -> None:
        """A cluster's allocation counters changed (allocate/release)."""
        self.used_grid[index] = used_grid
        self.used_local[index] = used_local
        idle = self.total[index] - self.failed[index] - used_grid - used_local
        if idle < 0:
            idle = 0
        effective = idle - self.pending[index]
        if effective < 0:
            effective = 0
        self.idle[index] = idle
        self.effective[index] = effective
        name = self.names[index]
        self._idle_view[name] = idle
        self._effective_view[name] = effective

    def update_failed(self, index: int, failed: int) -> None:
        """A cluster's failed-processor count changed (fault/repair)."""
        self.failed[index] = failed
        self.update_usage(index, self.used_grid[index], self.used_local[index])

    def update_pending(self, name: str, pending: int) -> None:
        """The claim ledger's pending total for *name* changed."""
        index = self._index[name]
        self.pending[index] = pending
        effective = self.idle[index] - pending
        if effective < 0:
            effective = 0
        self.effective[index] = effective
        self._effective_view[name] = effective

    # -- reads ----------------------------------------------------------------

    def idle_view(self) -> Dict[str, int]:
        """Shared read-only ``{name: idle}`` view (copy before retaining)."""
        return self._idle_view

    def effective_view(self) -> Dict[str, int]:
        """Shared read-only ``{name: idle - pending}`` view (copy before retaining)."""
        return self._effective_view

    def idle_of(self, name: str) -> int:
        """Idle processors of one cluster."""
        return self._idle_view[name]

    def effective_of(self, name: str) -> int:
        """Effective idle processors of one cluster."""
        return self._effective_view[name]

    def total_idle(self) -> int:
        """System-wide idle processors."""
        return sum(self.idle)

    # -- selections -----------------------------------------------------------

    def select_worst_fit(self, processors: int) -> Optional[str]:
        """Cluster with the most effective-idle processors that fits *processors*.

        Walks the clusters in name order and keeps the first strict maximum,
        so ties break towards the lexicographically smallest name — identical
        to sorting candidates by ``(-idle, name)`` and taking the first,
        which is what :class:`repro.koala.placement.WorstFit` does on its
        general path.  Returns ``None`` when no cluster fits (or there is no
        cluster).
        """
        effective = self.effective
        best = -1
        most = -1
        for index in self._name_order:
            idle = effective[index]
            if idle > most:
                most = idle
                best = index
        if most < processors:
            return None
        return self.names[best]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        busy = sum(self.used_grid) + sum(self.used_local)
        return f"<ClusterState {len(self)} clusters, {busy} busy, {self.total_idle()} idle>"
