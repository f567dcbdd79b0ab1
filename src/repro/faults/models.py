"""Fault models: deterministic streams of node-availability events.

The paper's premise is a *dynamically changing* multicluster: nodes fail,
drain and return while KOALA schedules around them.  A fault model describes
that dynamics as data — a time-ordered stream of :class:`FaultEvent` records
saying "at time *t*, *n* processors of cluster *c* went down / came back" —
which the :class:`~repro.faults.injector.FaultInjector` replays against the
simulated system.

Models are registered by name and referenced with ``fault:`` strings, the
same registry/prefix pattern the workload layer uses for traces::

    fault:exp?mtbf=3600&mttr=600          # exponential per-node churn
    fault:weibull?mtbf=7200&shape=1.5     # Weibull uptimes (ageing nodes)
    fault:outage?cluster=delft&at=1800&duration=900&every=7200
    fault:drain?cluster=vu&at=3600&duration=3600   # graceful: no kills
    fault:trace?path=outages.flt          # file-based availability trace

References are plain strings, so they travel through
:class:`~repro.experiments.setup.ExperimentConfig`, scenario variants, the
result cache and worker subprocesses unchanged; all randomness comes from a
dedicated :class:`~repro.sim.rng.RandomStreams` lane (``"faults"``), so
enabling a fault model never perturbs the draws of any other component.

Availability trace files (conventionally ``.flt``) are plain text, one event
per line, ``#`` comments allowed::

    # time  cluster  kind   processors
    1800    delft    down   16
    2400    delft    up     16
    3600    vu       drain  40
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

#: Prefix of fault-model references (``"fault:<name>?<params>"``).
FAULT_PREFIX = "fault:"

#: Event kinds: processors going down (possibly gracefully) or coming back.
KIND_FAIL = "fail"
KIND_REPAIR = "repair"


@dataclass(frozen=True)
class FaultEvent:
    """One availability change: *processors* of *cluster* fail or recover.

    ``graceful`` marks a drain: the processors leave the pool only as they
    fall idle, so no running job is killed by the event.
    """

    time: float
    cluster: str
    processors: int
    kind: str = KIND_FAIL
    graceful: bool = False

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ValueError(f"fault event time must be >= 0, got {self.time!r}")
        if self.processors < 1:
            raise ValueError("a fault event must cover at least one processor")
        if self.kind not in (KIND_FAIL, KIND_REPAIR):
            raise ValueError(f"unknown fault event kind {self.kind!r}")


#: Signature of a registered fault-model builder: ``(rng, clusters, **params)``
#: -> time-ordered event stream.  *clusters* maps cluster name -> node count.
FaultModelBuilder = Callable[..., Iterator[FaultEvent]]

_MODELS: Dict[str, Tuple[FaultModelBuilder, str]] = {}


def register_fault_model(
    name: str,
    builder: FaultModelBuilder,
    *,
    description: str = "",
    overwrite: bool = False,
) -> None:
    """Register *builder* as the fault model *name*.

    The builder receives the model parameters of a fault reference as keyword
    arguments plus the positional ``(rng, clusters)`` pair, and must validate
    its parameters eagerly (return an iterator, raise on bad input now).  A
    run can be checkpointed only if the iterator pickles, which a generator
    does not.
    """
    key = name.lower()
    if not overwrite and key in _MODELS:
        raise ValueError(f"fault model {name!r} already registered")
    _MODELS[key] = (builder, description)


def known_fault_models() -> List[Tuple[str, str]]:
    """``(name, description)`` of every registered fault model, sorted."""
    return [(name, description) for name, (_, description) in sorted(_MODELS.items())]


def resolve_fault_model(name: str) -> FaultModelBuilder:
    """The builder registered under *name*."""
    try:
        return _MODELS[name.lower()][0]
    except KeyError:
        from repro.refs import suggest

        known = ", ".join(entry for entry, _ in known_fault_models()) or "(none)"
        hint = suggest(name, (entry for entry, _ in known_fault_models()))
        suffix = f"; did you mean {hint!r}?" if hint else ""
        raise ValueError(
            f"unknown fault model {name!r}; known: {known}{suffix}"
        ) from None


# ---------------------------------------------------------------------------
# Per-node churn: renewal processes of alternating up/down times
# ---------------------------------------------------------------------------


class _RenewalChurn:
    """Merge one alternating up/down renewal process per node.

    Each node draws an uptime, fails, draws a downtime, recovers, and so on.
    Draw order is fully determined by the (deterministic) event order, so the
    same rng state always produces the same stream.  The laws are data,
    ``("exp", mean)`` or ``("weibull", scale, shape)``, and the stream is an
    iterator object rather than a generator, so a run holding it pickles.
    """

    def __init__(self, rng, clusters: Mapping[str, int], *, uptime, downtime, start: float):
        self._rng = rng
        self._uptime = uptime
        self._downtime = downtime
        self._heap: List[Tuple[float, int, str, str]] = []
        self._sequence = 0
        for cluster, nodes in clusters.items():
            for _ in range(int(nodes)):
                self._push(start + self._draw(uptime), cluster, KIND_FAIL)

    def _draw(self, law) -> float:
        if law[0] == "weibull":
            return float(law[1] * self._rng.weibull(law[2]))
        return float(self._rng.exponential(law[1]))

    def _push(self, time: float, cluster: str, kind: str) -> None:
        heappush(self._heap, (time, self._sequence, cluster, kind))
        self._sequence += 1

    def __iter__(self) -> "_RenewalChurn":
        return self

    def __next__(self) -> FaultEvent:
        if not self._heap:
            raise StopIteration
        time, _, cluster, kind = heappop(self._heap)
        if kind == KIND_FAIL:
            self._push(time + self._draw(self._downtime), cluster, KIND_REPAIR)
        else:
            self._push(time + self._draw(self._uptime), cluster, KIND_FAIL)
        return FaultEvent(time=time, cluster=cluster, processors=1, kind=kind)


def exponential_churn(
    rng,
    clusters: Mapping[str, int],
    *,
    mtbf: float = 86400.0,
    mttr: float = 600.0,
    start: float = 0.0,
) -> Iterator[FaultEvent]:
    """Per-node churn with exponential uptimes and repair times.

    *mtbf* is the mean time between failures of a single node (seconds),
    *mttr* its mean time to repair; *start* delays the first possible
    failure.  The classic memoryless availability model.
    """
    if not (mtbf > 0 and mttr > 0):
        raise ValueError("mtbf and mttr must be positive")
    if not start >= 0:
        raise ValueError("start must be non-negative")
    return _RenewalChurn(
        rng, clusters, uptime=("exp", mtbf), downtime=("exp", mttr), start=float(start)
    )


def weibull_churn(
    rng,
    clusters: Mapping[str, int],
    *,
    mtbf: float = 86400.0,
    shape: float = 1.5,
    mttr: float = 600.0,
    start: float = 0.0,
) -> Iterator[FaultEvent]:
    """Per-node churn with Weibull uptimes (shape > 1 models ageing nodes).

    The Weibull scale is derived from *mtbf* so the mean uptime equals it
    regardless of *shape*; repairs stay exponential with mean *mttr*.
    """
    if not (mtbf > 0 and mttr > 0):
        raise ValueError("mtbf and mttr must be positive")
    if not shape > 0:
        raise ValueError("shape must be positive")
    if not start >= 0:
        raise ValueError("start must be non-negative")
    scale = mtbf / math.gamma(1.0 + 1.0 / shape)
    return _RenewalChurn(
        rng,
        clusters,
        uptime=("weibull", scale, shape),
        downtime=("exp", mttr),
        start=float(start),
    )


# ---------------------------------------------------------------------------
# Whole-cluster outages and drains
# ---------------------------------------------------------------------------


def _cluster_window_events(
    clusters: Mapping[str, int],
    *,
    cluster: str,
    at: float,
    duration: float,
    every: Optional[float],
    nodes: int,
    graceful: bool,
) -> Iterator[FaultEvent]:
    if not at >= 0:
        raise ValueError("at must be non-negative")
    if not duration > 0:
        raise ValueError("duration must be positive")
    if every is not None and not every > 0:
        raise ValueError("every must be positive")
    if every is not None and every < duration:
        # Overlapping windows would emit a non-time-ordered stream (the next
        # window's failure precedes the previous window's repair), which the
        # injector rightly refuses; reject the parameters up front instead.
        raise ValueError(
            f"every ({every:g}) must be at least duration ({duration:g}): "
            "overlapping outage windows are not supported"
        )
    if nodes < 0:
        raise ValueError("nodes must be non-negative")
    if cluster != "all" and cluster not in clusters:
        known = ", ".join(sorted(clusters))
        raise ValueError(f"unknown cluster {cluster!r}; known: {known}")
    targets = sorted(clusters) if cluster == "all" else [cluster]
    window = []
    for offset, kind, is_graceful in ((0.0, KIND_FAIL, graceful), (duration, KIND_REPAIR, False)):
        for name in targets:
            count = min(int(nodes) if nodes else int(clusters[name]), int(clusters[name]))
            if count >= 1:
                window.append((offset, name, count, kind, is_graceful))
    return _Windows(window, float(at), every)


class _Windows:
    """The events of one outage or drain window, repeated every *every* seconds.

    Each window's events are ``(offset, cluster, processors, kind,
    graceful)`` data, so the stream pickles with the run that holds it.
    """

    def __init__(self, window, begin: float, every: Optional[float]) -> None:
        self._window = window
        self._begin = begin
        self._every = every
        self._index = 0

    def __iter__(self) -> "_Windows":
        return self

    def __next__(self) -> FaultEvent:
        if self._index == len(self._window):
            if self._every is None or not self._window:
                raise StopIteration
            self._begin += self._every
            self._index = 0
        offset, cluster, processors, kind, graceful = self._window[self._index]
        self._index += 1
        return FaultEvent(
            time=self._begin + offset, cluster=cluster, processors=processors,
            kind=kind, graceful=graceful,
        )


def cluster_outage(
    rng,
    clusters: Mapping[str, int],
    *,
    cluster: str = "all",
    at: float = 3600.0,
    duration: float = 1800.0,
    every: Optional[float] = None,
    nodes: int = 0,
) -> Iterator[FaultEvent]:
    """Hard outage of (part of) a cluster: running jobs on the nodes die.

    *nodes* = 0 takes the whole cluster down; ``every`` repeats the outage
    periodically.  ``cluster="all"`` hits every cluster.  Deterministic —
    *rng* is unused.
    """
    _ = rng
    return _cluster_window_events(
        clusters,
        cluster=str(cluster),
        at=float(at),
        duration=float(duration),
        every=float(every) if every is not None else None,
        nodes=int(nodes),
        graceful=False,
    )


def cluster_drain(
    rng,
    clusters: Mapping[str, int],
    *,
    cluster: str = "all",
    at: float = 3600.0,
    duration: float = 1800.0,
    every: Optional[float] = None,
    nodes: int = 0,
) -> Iterator[FaultEvent]:
    """Graceful drain: nodes leave the pool as they fall idle, nothing dies.

    Models scheduled maintenance — exactly the scenario where malleability
    lets the system shrink around the maintenance window.
    """
    _ = rng
    return _cluster_window_events(
        clusters,
        cluster=str(cluster),
        at=float(at),
        duration=float(duration),
        every=float(every) if every is not None else None,
        nodes=int(nodes),
        graceful=True,
    )


# ---------------------------------------------------------------------------
# File-based availability traces
# ---------------------------------------------------------------------------

#: Keywords accepted in the third column of an availability trace file.
_TRACE_KINDS = {
    "down": (KIND_FAIL, False),
    "fail": (KIND_FAIL, False),
    "drain": (KIND_FAIL, True),
    "up": (KIND_REPAIR, False),
    "repair": (KIND_REPAIR, False),
}


def parse_fault_trace(text: str, *, source: str = "<string>") -> List[FaultEvent]:
    """Parse an availability trace (see module docstring) into sorted events."""
    events: List[FaultEvent] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(
                f"{source}:{number}: expected 'time cluster kind processors', "
                f"got {raw.strip()!r}"
            )
        time_text, cluster, kind_text, count_text = parts
        try:
            kind, graceful = _TRACE_KINDS[kind_text.lower()]
        except KeyError:
            known = ", ".join(sorted(_TRACE_KINDS))
            raise ValueError(
                f"{source}:{number}: unknown event kind {kind_text!r} "
                f"(known: {known})"
            ) from None
        try:
            time = float(time_text)
            count = int(count_text)
        except ValueError:
            raise ValueError(
                f"{source}:{number}: malformed numbers in {raw.strip()!r}"
            ) from None
        events.append(
            FaultEvent(
                time=time, cluster=cluster, processors=count,
                kind=kind, graceful=graceful,
            )
        )
    events.sort(key=lambda event: event.time)
    return events


def trace_fault_model(
    rng,
    clusters: Mapping[str, int],
    *,
    path: str,
) -> Iterator[FaultEvent]:
    """Replay the availability trace file at *path*.

    Events naming clusters absent from the simulated system fail at build
    time, not mid-run.  Deterministic — *rng* is unused.
    """
    _ = rng
    trace_path = resolve_trace_path(str(path))
    if not trace_path.is_file():
        raise ValueError(f"fault trace file {path!r} does not exist")
    events = parse_fault_trace(
        trace_path.read_text(encoding="utf-8"), source=str(trace_path)
    )
    for event in events:
        if event.cluster not in clusters:
            known = ", ".join(sorted(clusters))
            raise ValueError(
                f"fault trace {path!r} names unknown cluster "
                f"{event.cluster!r} (known: {known})"
            )
    return iter(events)


register_fault_model(
    "exp",
    exponential_churn,
    description="exponential per-node churn (params: mtbf, mttr, start)",
)
register_fault_model(
    "weibull",
    weibull_churn,
    description="Weibull-uptime per-node churn (params: mtbf, shape, mttr, start)",
)
register_fault_model(
    "outage",
    cluster_outage,
    description="hard cluster outage (params: cluster, at, duration, every, nodes)",
)
register_fault_model(
    "drain",
    cluster_drain,
    description="graceful drain, no kills (params: cluster, at, duration, every, nodes)",
)
register_fault_model(
    "trace",
    trace_fault_model,
    description="file-based availability trace (params: path; see repro.faults.models)",
)


# ---------------------------------------------------------------------------
# Fault references: "fault:<model>?<param>=<value>&..."
# ---------------------------------------------------------------------------

#: Parameters consumed by the injector rather than the model builder.
INJECTOR_PARAMS = ("retries",)


def is_fault_reference(name: str) -> bool:
    """Whether *name* is a ``fault:`` reference."""
    return name.startswith(FAULT_PREFIX)


def _parse_value(text: str) -> Union[int, float, str]:
    from repro.refs import parse_scalar

    return parse_scalar(text)


@dataclass(frozen=True)
class FaultRef:
    """A parsed fault-model reference: model name plus its parameters."""

    model: str
    params: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, reference: str) -> "FaultRef":
        """Parse ``"fault:<model>?k=v&k=v"`` (the prefix is optional here)."""
        from repro.refs import parse_query, split_reference

        model, query = split_reference(reference, prefix=FAULT_PREFIX)
        if not model:
            raise ValueError(f"empty fault model name in reference {reference!r}")
        params = parse_query(
            query,
            value_parser=_parse_value,
            malformed=lambda part: (
                f"malformed fault parameter {part!r} in {reference!r} "
                "(expected key=value)"
            ),
        )
        return cls(model=model, params=params)

    def canonical(self) -> str:
        """The canonical reference string (sorted parameters, with prefix)."""
        from repro.refs import render_reference

        return render_reference(self.model, self.params, prefix=FAULT_PREFIX)

    def model_params(self) -> Dict[str, Any]:
        """The parameters forwarded to the model builder."""
        return {
            key: value
            for key, value in self.params.items()
            if key not in INJECTOR_PARAMS
        }

    def retries(self) -> Optional[int]:
        """Resubmission budget per killed job (``None`` = unlimited).

        The ``retries`` parameter: how many times a failure-killed job may be
        resubmitted before it is abandoned; negative values mean unlimited.
        """
        raw = self.params.get("retries")
        if raw is None:
            return None
        value = int(raw)
        return None if value < 0 else value

    def validate(self, clusters: Optional[Mapping[str, int]] = None) -> "FaultRef":
        """Fail fast on anything wrong with this reference.

        Resolves the model, constructs its event stream against *clusters*
        (a representative single-node probe layout when omitted) without
        pulling a single event, and checks the injector parameters.  Raises
        :class:`ValueError` with a pointed message so configuration surfaces
        report bad references as argument errors, not tracebacks mid-sweep.
        """
        builder = resolve_fault_model(self.model)
        probe = dict(clusters) if clusters is not None else {"_probe": 1}
        import numpy as np

        try:
            builder(np.random.default_rng(0), probe, **self.model_params())
        except TypeError as error:
            raise ValueError(
                f"fault model {self.model!r} rejected parameters "
                f"{sorted(self.model_params())}: {error}"
            ) from None
        except ValueError as error:
            # An unknown-cluster complaint against the probe layout is not a
            # reference error; re-check against the real layout at build time.
            if clusters is None and "unknown cluster" in str(error):
                pass
            else:
                raise
        self.retries()
        return self

    def build(self, rng, clusters: Mapping[str, int]) -> Iterator[FaultEvent]:
        """The event stream of this reference against the *clusters* layout."""
        builder = resolve_fault_model(self.model)
        return builder(rng, dict(clusters), **self.model_params())


def fault_reference_string(reference: str) -> str:
    """Validate *reference* and return its canonical string form.

    The :class:`~repro.experiments.setup.ExperimentConfig` normalisation
    hook: typos fail at configuration-construction time with the registered
    model names listed, and the canonical form keeps cache keys stable.
    """
    return FaultRef.parse(reference).validate().canonical()


def fault_fingerprint(reference: str) -> Optional[str]:
    """Content digest of a *file-backed* fault reference, ``None`` otherwise.

    Registered models are deterministic code (covered by the sweep engine's
    code-version digest); a trace *file* is data the code digest cannot see,
    so its content hash joins the result-cache key — the same rule the
    workload layer applies to ``.swf`` files.
    """
    import hashlib

    try:
        ref = FaultRef.parse(reference)
    except ValueError:
        return None
    path_value = ref.params.get("path")
    if ref.model.lower() != "trace" or path_value is None:
        return None
    path = resolve_trace_path(str(path_value))
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


#: Environment variable naming a directory searched for fault trace files
#: referenced with bare names (``fault:trace?path=outages.flt``).
FAULT_TRACES_DIR_ENV = "REPRO_FAULT_TRACES_DIR"


def resolve_trace_path(name: str) -> Path:
    """Resolve a fault-trace file name against ``$REPRO_FAULT_TRACES_DIR``.

    Absolute and relative paths that exist win; otherwise the override
    directory is probed.  Returns the path unchanged when nothing matches
    (the model builder reports the missing file).
    """
    candidate = Path(name)
    if candidate.is_file():
        return candidate
    override = os.environ.get(FAULT_TRACES_DIR_ENV)
    if override:
        probed = Path(override) / name
        if probed.is_file():
            return probed
    return candidate
