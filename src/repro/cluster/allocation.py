"""Processor allocations.

An :class:`Allocation` is the record of a number of processors (nodes) handed
out by a :class:`~repro.cluster.cluster.Cluster` to some owner — a KOALA job
component, a single size-1 GRAM job managed by the MRunner, or a local
background job.  Allocations are the unit of accounting for the utilization
metrics (Figures 7(e) and 8(e)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster


class AllocationError(RuntimeError):
    """Raised when an allocation cannot be granted or is misused."""


_allocation_ids = count(1)


@dataclass
class Allocation:
    """A number of processors granted by a cluster to an owner.

    Attributes
    ----------
    cluster:
        The granting cluster.
    processors:
        How many processors (nodes) the allocation covers.
    owner:
        Free-form identifier of the entity holding the allocation (job id,
        background stream name, ...).
    kind:
        ``"grid"`` for allocations made on behalf of KOALA-managed jobs,
        ``"local"`` for background load submitted directly to the local
        resource manager.
    granted_at:
        Simulation time the allocation was granted.
    released_at:
        Simulation time it was released (``None`` while still held).
    """

    cluster: "Cluster"
    processors: int
    owner: str
    kind: str = "grid"
    granted_at: float = 0.0
    released_at: Optional[float] = None
    allocation_id: int = field(default_factory=_allocation_ids.__next__)

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise AllocationError("an allocation must cover at least one processor")
        if self.kind not in ("grid", "local"):
            raise AllocationError(f"unknown allocation kind {self.kind!r}")

    @property
    def active(self) -> bool:
        """Whether the allocation is still held."""
        return self.released_at is None

    @property
    def duration(self) -> float:
        """How long the allocation was (or has been) held."""
        if self.released_at is None:
            raise AllocationError("allocation is still active")
        return self.released_at - self.granted_at

    def release(self) -> None:
        """Return the processors to the cluster."""
        self.cluster.release(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.active else "released"
        return (
            f"<Allocation #{self.allocation_id} {self.processors}p on "
            f"{self.cluster.name!r} for {self.owner!r} ({self.kind}, {state})>"
        )
