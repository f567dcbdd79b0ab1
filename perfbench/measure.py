"""The benchmark's own arithmetic: percentiles, phases, failures, self time.

Everything here is a pure function of its arguments so that
``test_measure.py`` can pin it down without running the simulator.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Layers measured by the benchmark: the modules of ``src/repro``.
LAYERS = (
    "sim",
    "cluster",
    "koala",
    "malleability",
    "dynaco",
    "apps",
    "policies",
    "faults",
    "workloads",
    "metrics",
    "experiments",
    "checkpoint",
    "service",
    "obs",
)

#: Where time is charged that no ``repro`` frame called (interpreter start,
#: the benchmark's own code) and the modules the benchmark does not measure.
OTHER = "other"


def median(values: Sequence[float]) -> float:
    """Interpolated median (the mean of the two middle values when even)."""
    return float(statistics.median(values))


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` sorted samples the value at
    0-based index ``n - 11`` has exactly 10 samples above it, which makes it
    the ``100 * (n - 10) / n`` th percentile.  Fewer than 11 samples have no
    such percentile; the maximum is returned with percentile 100.
    """
    if not samples:
        raise ValueError("tail of no samples")
    return weighted_tail([(value, Fraction(1)) for value in sorted(samples)])


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def request_latency(seconds: float, ok: bool) -> float:
    """Latency of one request in ms; a failed request misses every limit."""
    return seconds * 1000.0 if ok else math.inf


def split_phases(spawned: float, ready: float, done: float) -> Tuple[float, float]:
    """``(setup_s, simulation_s)`` of one pass from three clock readings.

    *spawned* is read before the fresh interpreter is started, *ready* when
    its imports are done and its inputs are built, *done* when the result
    has been verified.  All three come from the same monotonic clock.
    """
    if not spawned <= ready <= done:
        raise ValueError(f"clock readings out of order: {spawned}, {ready}, {done}")
    return ready - spawned, done - ready


def layer_of(filename: str) -> str:
    """The ``repro`` module a source file belongs to, or :data:`OTHER`."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index < 0:
        return OTHER
    rest = path[index + len(marker):]
    head = rest.split("/", 1)[0]
    name = head[:-3] if head.endswith(".py") else head
    return name if name in LAYERS else OTHER


FuncKey = Tuple[str, int, str]
#: ``pstats``-shaped table: key -> (cc, nc, tottime, cumtime, callers), where
#: ``callers`` maps a caller key to its (cc, nc, tottime, cumtime) share.
StatsTable = Mapping[FuncKey, Tuple[int, int, float, float, Mapping[FuncKey, Tuple]]]


def self_time_by_layer(stats: StatsTable) -> Dict[str, float]:
    """Profiler self time grouped by ``repro`` module.

    A function outside ``repro`` (a builtin, numpy, the standard library)
    has its self time charged to the ``repro`` module that called it: split
    over its callers in proportion to the self time each call site caused,
    and followed up through callers that are themselves outside ``repro``.
    Time no ``repro`` frame caused lands in :data:`OTHER`.
    """
    memo: Dict[FuncKey, Dict[str, float]] = {}
    active: set = set()

    def shares(key: FuncKey) -> Dict[str, float]:
        layer = layer_of(key[0])
        if layer != OTHER:
            return {layer: 1.0}
        if key in memo:
            return memo[key]
        entry = stats.get(key)
        if entry is None or key in active:
            return {OTHER: 1.0}
        callers = entry[4]
        weights = {caller: float(share[2]) for caller, share in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: float(share[1]) for caller, share in callers.items()}
            total = sum(weights.values())
        if total <= 0.0:
            memo[key] = {OTHER: 1.0}
            return memo[key]
        active.add(key)
        result: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, fraction in shares(caller).items():
                result[name] = result.get(name, 0.0) + fraction * weight / total
        active.discard(key)
        memo[key] = result
        return result

    totals: Dict[str, float] = {name: 0.0 for name in LAYERS + (OTHER,)}
    for key, entry in stats.items():
        tottime = float(entry[2])
        if tottime <= 0.0:
            continue
        for name, fraction in shares(key).items():
            totals[name] += tottime * fraction
    return totals


def calls_by_layer(stats: StatsTable) -> Dict[str, int]:
    """Exact call counts of the functions defined in each ``repro`` module."""
    totals: Dict[str, int] = {name: 0 for name in LAYERS}
    for key, entry in stats.items():
        layer = layer_of(key[0])
        if layer != OTHER:
            totals[layer] += int(entry[1])
    return totals


def calls_named(stats: StatsTable, function: str, layers: Sequence[str]) -> int:
    """Exact calls of every function called *function* in the given modules."""
    return sum(
        int(entry[1])
        for key, entry in stats.items()
        if key[2] == function and layer_of(key[0]) in layers
    )


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def median_over_seeds(samples: Iterable[Tuple[int, float]]) -> float:
    """Median over input seeds of each seed's median, from ``(seed, value)`` pairs.

    A run stops on wall time, so some input seeds get one pass more than
    others; taking each seed's median first weighs every seed once however
    many passes fit, and so a faster or slower program is measured on the
    same inputs.
    """
    by_seed: Dict[int, List[float]] = {}
    for seed, value in samples:
        by_seed.setdefault(seed, []).append(value)
    if not by_seed:
        raise ValueError("median of no samples")
    return median([median(values) for values in by_seed.values()])


Pool = List[Tuple[float, Fraction]]


def seed_weighted(passes: Iterable[Tuple[int, Sequence[float]]]) -> Pool:
    """The requests of every pass, weighted so that every input seed counts once.

    *passes* holds one ``(input_seed, latencies)`` pair per pass.  A request
    of a seed that got ``k`` passes weighs ``1/k``, so the pool weighs as
    much as one pass of each seed however many passes fit, and a percentile
    of it is the same percentile in every run.  Returns ``(latency, weight)``
    pairs in ascending order of latency.
    """
    passes = list(passes)
    counts: Dict[int, int] = {}
    for seed, _ in passes:
        counts[seed] = counts.get(seed, 0) + 1
    return sorted(
        (latency, Fraction(1, counts[seed])) for seed, latencies in passes for latency in latencies
    )


def weighted_tail(pool: Pool) -> Tuple[float, float]:
    """The highest percentile of a weighted pool with weight 10 or more beyond it.

    *pool* is in ascending order.  Returns ``(value, percentile)``, the
    percentile being the share of the pool's weight not above the value; a
    pool of weight 10 or less has no such percentile, and its maximum is
    returned with percentile 100.  With unit weights this is :func:`tail`.
    """
    if not pool:
        raise ValueError("tail of no samples")
    total = sum(weight for _, weight in pool)
    beyond = Fraction(0)
    for value, weight in reversed(pool):
        if beyond >= TAIL_BEYOND:
            return value, float(100 * (total - beyond) / total)
        beyond += weight
    return pool[-1][0], 100.0
