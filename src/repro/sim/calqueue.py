"""Name of the kernel's event queue.

The simulation kernel (:mod:`repro.sim.core`) keeps its pending events in a
binary heap; there is no other queue to choose.  This module stays only
because ``perfbench/run.py`` imports :func:`resolve_queue_name` for the
host fingerprint it prints with every benchmark run.
"""

from __future__ import annotations


def resolve_queue_name() -> str:
    """The kernel's event-queue implementation: always ``"heap"``."""
    return "heap"
