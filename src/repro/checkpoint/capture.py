"""Capturing a running simulation into a checkpoint envelope.

Two capture modes share the envelope format:

``native``
    The full simulation state — queued jobs, running applications with their
    exact completion instants, the submitter cursor, the KIS poll grid, the
    per-cluster idle counters, the random-stream lane states — serialised so
    :func:`repro.checkpoint.restore.restore_run` can rebuild a run whose
    remaining event drain order (and therefore every per-job metric tuple)
    is byte-identical to the uninterrupted run.  Native capture is only
    offered for configurations inside a verified envelope (see
    :func:`native_unsupported_reason`); anything else raises
    :class:`~repro.checkpoint.envelope.CheckpointUnsupported` instead of
    producing a checkpoint that restores *almost* correctly.

``replay``
    A recovery point for arbitrary configurations: the envelope stores the
    configuration plus a kernel fingerprint, and restore re-runs the
    deterministic simulation from time zero to the capture instant, then
    *verifies* it re-reached exactly the captured kernel/lane/cursor state.
    Costs re-simulation time, supports every configuration.

Capture happens at a *safe point*: a time by which every earlier event has
drained and no transient scheduler activity (claim settlement, GRAM
submission flight, placement) is in progress — :func:`advance_to_safe_point`
advances the simulation to the next such time.  At a safe point the
pending event queue of a native-capturable run holds nothing but timeouts
of three kinds (a workload-submitter link, a KIS poll link, a running rigid
application's completion link); the capture classifies every entry by its
callback's function and owner, refusing loudly on anything else.
"""

from __future__ import annotations

import hashlib
from math import inf, nextafter
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.runtime import RunningApplication
from repro.checkpoint.envelope import CHECKPOINT_FORMAT, CheckpointUnsupported
from repro.koala.job import JobState
from repro.koala.kis import KoalaInformationService
from repro.sim.core import Environment
from repro.workloads.submission import WorkloadSubmitter

#: Placement policies whose decisions depend only on the current idle view —
#: no retained state across events — making the rebuilt scheduler's future
#: decisions identical to the original's.  (EASY backfilling, by contrast,
#: carries reservations across events and is replay-mode only.)
NATIVE_PLACEMENT_POLICIES = {"WF", "CF", "CM", "FCM"}


def step_until(env: Environment, until: float) -> None:
    """Advance the kernel to *until*, firing every event scheduled before it.

    The checkpoint layer's named advance: ``env.run(until=until)``, which
    schedules no stop event and so allocates no event id — the replay-mode
    fingerprint comparison requires the capture-side and restore-side
    kernels to have allocated *exactly* the same ids.  Events at exactly
    *until* stay pending; safe on an empty queue.
    """
    env.run(until=until)


def kernel_fingerprint(env: Environment) -> Dict[str, Any]:
    """JSON-able identity of the kernel state, pending queue included.

    Two runs with equal fingerprints have the same clock, the same event-id
    high-water mark and the same pending events in the same drain order —
    the replay-mode restore check.  Event *times* are rendered through
    ``float.hex`` so bit-equality is what is compared.
    """
    state = env.kernel_state()
    return {
        "now": float(env.now).hex(),
        "event_id": state["event_id"],
        "events_processed": state["events_processed"],
        "pending": [
            [float(time).hex(), int(priority), int(eid), type(event).__name__]
            for time, priority, eid, event in env.pending_entries()
        ],
    }


def native_unsupported_reason(config, workload) -> Optional[str]:
    """Why *config*/*workload* falls outside the native-capture envelope.

    ``None`` means native capture is supported.  The envelope is deliberately
    conservative: every feature listed here either keeps state capture does
    not serialise (mid-flight reconfigurations, a fault model's event
    iterator) or draws from random streams in ways a rebuilt run would not
    repeat bit-exactly (faults, GRAM latency jitter, background load).
    Replay-mode capture covers all of them.
    """
    if config.malleability_policy is not None:
        return (
            "malleable job management keeps mid-flight reconfiguration state "
            "in the runner, DYNACO and application objects, which capture "
            "does not serialise"
        )
    if config.fault_model is not None:
        return "fault injection keeps a fault model's event iterator and random streams"
    if config.gram_latency_jitter != 0.0:
        return "GRAM latency jitter draws from a random stream per submission"
    from repro.experiments.setup import default_background

    resolved_background = config.background or default_background(
        config.background_fraction
    )
    if resolved_background:
        return "background load draws from per-cluster random streams per local job"
    base_policy = str(config.placement_policy).split("?", 1)[0].upper()
    if base_policy not in NATIVE_PLACEMENT_POLICIES:
        return (
            f"placement policy {config.placement_policy!r} retains state across "
            f"events (native capture supports {sorted(NATIVE_PLACEMENT_POLICIES)})"
        )
    for spec in workload:
        if spec.kind.value != "rigid":
            return f"workload contains non-rigid job kind {spec.kind.value!r}"
        if not spec.name:
            return (
                "workload contains unnamed job specs (auto-generated names embed "
                "a process-global counter and do not survive a restore)"
            )
    return None


def _transient(scheduler, multicluster) -> bool:
    """Whether scheduler-level activity is mid-flight at the current instant.

    True while any of the states a checkpoint must not split is in progress:
    an unsettled processor claim, a GRAM submission between submit and
    active, or a job placed but not yet running.
    """
    if len(scheduler.ledger) > 0:
        return True
    for name in multicluster.cluster_names:
        for gram_job in multicluster.gram(name).jobs:
            if gram_job.allocation is None:
                return True
    for runner in scheduler._runners.values():
        if runner.job.state is JobState.PLACING:
            return True
    return False


def advance_to_safe_point(run, *, limit: Optional[float] = None) -> float:
    """Advance *run* to the next time at which capture is possible.

    A safe point requires (i) every event scheduled at or before the current
    time to have drained (``peek() > now`` — capture mid-instant would split
    a cascade of same-time events across the checkpoint) and (ii) no
    transient scheduler activity.  Each step fires the next instant whole
    and stops the clock just after it, so a safe point always lies between
    two instants.  Returns the safe-point time.

    Raises :class:`CheckpointUnsupported` when no safe point is found before
    *limit* (default: the configuration's time limit).
    """
    env = run.env
    bound = float(limit) if limit is not None else float(run.config.time_limit)
    while env.peek() <= env.now or _transient(run.scheduler, run.multicluster):
        if env.now > bound:
            raise CheckpointUnsupported(
                f"no checkpoint-safe point found before t={bound}"
            )
        head = env.peek()
        if head == inf:  # pragma: no cover - defensive
            break
        env.run(until=nextafter(head, inf))
    return env.now


def workload_digest(workload) -> str:
    """Exact content digest of a workload specification.

    Restore rebuilds the workload from the configuration; the digest catches
    the silent failure mode where the rebuilt workload has the right *size*
    but different specs — a custom workload object, a changed generator, a
    different seed.  Cached on the spec object: a million-job workload is
    hashed once per process, not once per checkpoint.
    """
    cached = getattr(workload, "_checkpoint_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for spec in workload.jobs:
        digest.update(
            (
                f"{float(spec.submit_time).hex()}|{spec.profile_name}|"
                f"{spec.kind.value}|{spec.initial_processors}|"
                f"{spec.minimum_processors}|{spec.maximum_processors}|{spec.name}\n"
            ).encode()
        )
    value = digest.hexdigest()
    workload._checkpoint_digest = value
    return value


def _base_payload(run, mode: str) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "mode": mode,
        "config": run.config.to_dict(),
        "time": float(run.env.now).hex(),
        "cursor": run.submitter.cursor,
        "workload_size": len(run.workload.jobs),
        "workload_digest": workload_digest(run.workload),
        "retain_jobs": run.submitter.retain_jobs,
        "lanes": run.streams.lane_states(),
        "kernel": kernel_fingerprint(run.env),
    }
    if run.collector is not None:
        payload["window"] = run.collector.window.to_dict()
    return payload


def _classify_pending(run) -> Tuple[List[Dict[str, Any]], Dict[str, str]]:
    """Classify every pending queue entry of a safe-point native capture.

    Returns ``(intents, finish_of)``: the intent list (one per pending
    timeout, ascending event id — the order restore re-creates their owners
    in) and the completion instant of each running job (hex).  Raises
    :class:`CheckpointUnsupported` on any entry whose one callback is not a
    known function of a known owner: the submitter's link, the KIS poll link,
    or the completion link (``RunningApplication._resume``) of a running
    application.
    """
    scheduler = run.scheduler
    owners: Dict[Tuple[Any, int], Tuple[str, Optional[str]]] = {
        (WorkloadSubmitter._submit_link, id(run.submitter)): ("submit", None),
        (KoalaInformationService._poll_link, id(scheduler.kis)): ("kis", None),
    }
    for job in scheduler._running.values():
        runner = scheduler._runners[job.job_id]
        application = runner.application
        if application is None or not application._started:
            raise CheckpointUnsupported(
                f"running job {job.name!r} has no started application to capture"
            )
        owners[(RunningApplication._resume, id(application))] = ("app", job.name)

    intents: List[Dict[str, Any]] = []
    finish_of: Dict[str, str] = {}
    for time, priority, eid, event in run.env.pending_entries():
        callbacks = event.callbacks
        if callbacks is None or len(callbacks) != 1:
            raise CheckpointUnsupported(
                f"pending event {event!r} at t={time} has "
                f"{0 if callbacks is None else len(callbacks)} callbacks "
                f"(expected exactly one)"
            )
        callback = callbacks[0]
        owner = owners.get(
            (getattr(callback, "__func__", None), id(getattr(callback, "__self__", None)))
        )
        if owner is None:
            raise CheckpointUnsupported(
                f"pending event {event!r} at t={time} calls {callback!r}, which "
                f"is not a submission, a KIS poll or a running application"
            )
        kind, job_name = owner
        intents.append(
            {
                "eid": int(eid),
                "kind": kind,
                "time": float(time).hex(),
                "job": job_name,
            }
        )
        if kind == "app" and job_name is not None:
            finish_of[job_name] = float(time).hex()
    intents.sort(key=lambda intent: intent["eid"])
    return intents, finish_of


def capture_state(run, *, mode: str = "native") -> Dict[str, Any]:
    """Serialise the current state of *run* into a checkpoint envelope.

    The run must be at a safe point (use :func:`advance_to_safe_point`);
    capture refuses mid-instant states outright.  ``mode="replay"`` captures
    the verification fingerprint only and works for every configuration;
    ``mode="native"`` additionally captures full scheduler/cluster state and
    is restricted to the envelope of :func:`native_unsupported_reason`.
    """
    if mode not in ("native", "replay"):
        raise ValueError(f"unknown capture mode {mode!r}")
    env = run.env
    if env.peek() <= env.now:
        raise CheckpointUnsupported(
            "capture requires a fully drained instant (events are still "
            "pending at the current time); call advance_to_safe_point() first"
        )
    if mode == "replay":
        return _base_payload(run, "replay")

    reason = native_unsupported_reason(run.config, run.workload)
    if reason is not None:
        raise CheckpointUnsupported(
            f"native capture is not supported for this configuration: {reason}; "
            f"use mode='replay'"
        )
    scheduler = run.scheduler
    if _transient(scheduler, run.multicluster):
        raise CheckpointUnsupported(
            "scheduler activity is mid-flight; call advance_to_safe_point() first"
        )
    if scheduler.finished or scheduler.failed:
        raise CheckpointUnsupported(
            "finished jobs have not been drained; call scheduler.drain_finished() "
            "(native checkpoints capture the in-flight working set only)"
        )

    intents, finish_of = _classify_pending(run)
    running_names = {job.name for job in scheduler._running.values()}
    missing = sorted(running_names - set(finish_of))
    if missing:
        raise CheckpointUnsupported(
            f"running job(s) {missing} have no pending completion timeout"
        )

    payload = _base_payload(run, "native")
    payload["queued"] = [
        {
            "name": entry.job.name,
            "profile": entry.job.profile.name,
            "processors": int(entry.job.single_component.processors),
            "submit": float(entry.job.submit_time).hex(),
            "enqueued": float(entry.enqueued_at).hex(),
            "tries": int(entry.tries),
            "reason": entry.last_failure_reason,
        }
        for entry in scheduler.queue
    ]
    payload["running"] = [
        {
            "name": job.name,
            "profile": job.profile.name,
            "processors": int(scheduler._runners[job.job_id].application.allocation),
            "submit": float(job.submit_time).hex(),
            "start": float(job.start_time).hex(),
            "finish": finish_of[job.name],
            "cluster": scheduler._runners[job.job_id].cluster_name,
        }
        for job in scheduler._running.values()
    ]
    payload["intents"] = intents
    kis = scheduler.kis
    kis_intents = [intent for intent in intents if intent["kind"] == "kis"]
    if len(kis_intents) != 1:
        raise CheckpointUnsupported(
            f"expected exactly one pending KIS poll, found {len(kis_intents)}"
        )
    payload["kis"] = {
        "next_poll": kis_intents[0]["time"],
        "snapshot_time": float(kis._snapshot.time).hex(),
        "snapshot_idle": {
            name: int(value)
            for name, value in sorted(kis._snapshot.idle_processors.items())
        },
    }
    payload["idle"] = {
        name: int(value)
        for name, value in sorted(dict(run.multicluster.state.idle_view()).items())
    }
    payload["counters"] = {
        "accepted": scheduler.accepted_count,
        "finished": scheduler.finished_count,
        "failed": scheduler.failed_count,
    }
    submit_intents = [intent for intent in intents if intent["kind"] == "submit"]
    if payload["cursor"] < payload["workload_size"] and not submit_intents:
        raise CheckpointUnsupported(
            "workload submission is incomplete but no submission timeout is "
            "pending (submitter mid-instant?)"
        )
    return payload
