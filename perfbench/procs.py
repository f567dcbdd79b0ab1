"""Peak RSS of the processes of a pass, read from ``/proc`` while they run.

``ru_maxrss`` from ``wait4`` or ``RUSAGE_CHILDREN`` would not do for a
process the benchmark starts: an interpreter started by ``exec`` from the
``vfork`` that :mod:`subprocess` uses records the high-water mark of the
process that started it, so every pass would report at least the
benchmark's own peak.  ``VmHWM`` belongs to the process's own address space.
"""

from __future__ import annotations

import os
from typing import List, Union


def high_water_mb(pid: Union[int, str] = "self") -> float:
    """Peak RSS (``VmHWM``) of a running process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def children_of(pid: int) -> List[int]:
    """The running processes whose parent is *pid*."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def tree_high_water_mb(pid: int) -> float:
    """Peak RSS in MB of the largest of process *pid* and its children."""
    peaks = []
    for member in [pid] + children_of(pid):
        try:
            peaks.append(high_water_mb(member))
        except OSError:  # it ended meanwhile
            continue
    return max(peaks)
