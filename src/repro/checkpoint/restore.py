"""Restoring a checkpoint envelope into a live, continuable simulation run.

Native restore rebuilds the run object graph from the captured state and —
this is the delicate part — re-creates the *pending event queue* so that the
remaining drain order is identical to the uninterrupted run's:

* Events scheduled for the same instant drain in ``(priority, event id)``
  order, and event ids are allocated when events are *scheduled*, so only
  the **relative** id order of the pending timeouts matters (restored ids
  differ from the originals by a uniform construction offset, which can
  never reorder a tie).
* The capture recorded one *intent* per pending timeout — who owns it
  (workload submitter, KIS poll loop, or a running application) and the
  original id.  Restore creates the owners in ascending original-id order.
  Every owner schedules one URGENT relay at the restore instant when it
  starts, these drain in creation order, and each one's callback allocates
  the owner's timeout id — so the rebuilt timeouts carry ids in exactly the
  captured relative order.
* Running rigid applications are rehydrated as two URGENT relays: one arms
  the application's own completion link on a timeout at its recorded
  absolute finish instant, the other registers the runner's completion link
  on the application's ``completed`` event.  Their observable effects —
  events pushed, callbacks run, records filled — replicate the tails of the
  original chains bit for bit, and a re-capture classifies the rearmed
  completion like the original one.

Replay restore is the general path: re-run the deterministic simulation
from time zero to the capture instant, then *prove* it re-reached the
captured state (kernel fingerprint, RNG lanes, submitter cursor, metrics
window) before handing the run back.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.apps.profiles import default_registry
from repro.apps.runtime import RunningApplication
from repro.checkpoint.capture import (
    kernel_fingerprint,
    native_unsupported_reason,
    step_until,
    workload_digest,
)
from repro.checkpoint.envelope import RestoreError, load_checkpoint, validate_envelope
from repro.cluster.gram import GramJob
from repro.experiments.setup import (
    ExperimentConfig,
    SimulationRun,
    _profile_registry,
    build_system,
    build_workload,
)
from repro.koala.job import Job, JobState
from repro.koala.kis import KisSnapshot
from repro.metrics.windowed import WindowedCollector, WindowedMetrics
from repro.sim.core import Environment
from repro.sim.events import URGENT
from repro.sim.rng import RandomStreams
from repro.workloads.submission import WorkloadSubmitter


def _resume_app(application: RunningApplication, finish_at: float, _relay) -> None:
    """Rehydrated tail of a rigid application's computation.

    The application computes from now until its recorded completion
    instant: its remaining work is set to what that segment does, so the
    completion link, armed on a timeout at *finish_at*, closes the segment
    with exactly no work left and finishes the application.
    """
    application._begin_progress()
    application._remaining = (finish_at - application.env.now) * application._progressing_rate
    application._wait_interruptibly(application.env.timeout_at(finish_at))


def _resume_runner(runner, _relay) -> None:
    """Rehydrated tail of a runner: its completion link on ``completed``."""
    runner.application.completed.callbacks.append(runner._completed)


def _fromhex(value: str) -> float:
    try:
        return float.fromhex(value)
    except (TypeError, ValueError) as error:
        raise RestoreError(f"malformed float field {value!r}: {error}") from None


def restore_run(
    data: Dict[str, Any], *, workload=None, collect_windowed: bool = True
) -> SimulationRun:
    """Rebuild a live :class:`SimulationRun` from a checkpoint envelope.

    Dispatches on the envelope's ``mode``.  The returned run continues from
    the capture instant; advancing it (``run_to_completion``) produces a
    remaining event sequence — and therefore final metrics — identical to
    the run the checkpoint was captured from.

    A run over a workload object that is *not* derivable from its
    configuration (a hand-built :class:`~repro.workloads.spec.WorkloadSpec`)
    can only be restored by passing the same *workload* back in — the
    envelope carries a content digest and the restore refuses a workload
    that differs from the captured one.
    """
    validate_envelope(data)
    config = ExperimentConfig.from_dict(data["config"])
    mode = data["mode"]
    if mode == "native":
        return _restore_native(data, config, collect_windowed, workload=workload)
    if mode == "replay":
        return _restore_replay(data, config, workload=workload)
    raise RestoreError(f"unknown checkpoint mode {mode!r}")


def resume_run(
    source: Union[str, Path, Dict[str, Any]],
    *,
    workload=None,
    collect_windowed: bool = True,
) -> SimulationRun:
    """Load a checkpoint (path or envelope) and restore it."""
    if isinstance(source, (str, Path)):
        data = load_checkpoint(source)
    else:
        data = source
    return restore_run(data, workload=workload, collect_windowed=collect_windowed)


def _check_workload(data: Dict[str, Any], workload) -> None:
    """Verify the restore-side workload matches the captured one exactly."""
    size = int(data["workload_size"])
    if len(workload.jobs) != size:
        raise RestoreError(
            f"restore workload has {len(workload.jobs)} jobs, checkpoint "
            f"recorded {size} (configuration/seed mismatch?)"
        )
    captured = data.get("workload_digest")
    if captured is not None and workload_digest(workload) != captured:
        raise RestoreError(
            "restore workload content differs from the captured one; a run "
            "over a custom WorkloadSpec must be restored with "
            "restore_run(..., workload=<the same spec>)"
        )


# -- native ------------------------------------------------------------------


def _restore_native(
    data: Dict[str, Any],
    config: ExperimentConfig,
    collect_windowed: bool,
    workload=None,
) -> SimulationRun:
    at = _fromhex(data["time"])
    cursor = int(data["cursor"])
    workload_size = int(data["workload_size"])

    streams = RandomStreams(seed=config.seed)
    env = Environment(initial_time=at)
    if workload is None:
        workload = build_workload(config, streams)
    _check_workload(data, workload)
    reason = native_unsupported_reason(config, workload)
    if reason is not None:
        raise RestoreError(
            f"envelope claims native mode but the configuration is outside "
            f"the native envelope: {reason}"
        )
    if not 0 <= cursor <= workload_size:
        raise RestoreError(f"cursor {cursor} outside workload [0, {workload_size}]")

    next_poll = _fromhex(data["kis"]["next_poll"])
    multicluster, scheduler = build_system(
        config,
        env,
        streams,
        scheduler_extra={"kis_first_poll_at": next_poll, "kis_defer_polling": True},
    )
    registry = _profile_registry(config) or default_registry()

    # Queued jobs: rebuilt directly into the placement queue (not through
    # ``scheduler.submit()``, which would stamp current-time submit times,
    # bump the accepted counter and emit a JobSubmitted trigger).
    for queued in data["queued"]:
        profile = registry.get(queued["profile"])
        job = Job.rigid(profile.as_rigid(), int(queued["processors"]), name=queued["name"])
        job.submit_time = _fromhex(queued["submit"])
        job.state = JobState.QUEUED
        job.placement_tries = int(queued["tries"])
        scheduler._runners[job.job_id] = scheduler.runners.create_runner(job)
        entry = scheduler.queue.enqueue(job, _fromhex(queued["enqueued"]))
        entry.tries = int(queued["tries"])
        entry.last_failure_reason = queued.get("reason", "")

    # Running jobs: allocation, GRAM bookkeeping and application record are
    # rebuilt synchronously; their chains are resumed in the intent pass
    # below so event ids land in the captured relative order.
    rehydrated: Dict[str, Tuple[Any, RunningApplication, float]] = {}
    for running in data["running"]:
        profile = registry.get(running["profile"])
        processors = int(running["processors"])
        cluster_name = running["cluster"]
        job = Job.rigid(profile.as_rigid(), processors, name=running["name"])
        job.submit_time = _fromhex(running["submit"])
        job.start_time = _fromhex(running["start"])
        job.state = JobState.RUNNING
        job.single_component.cluster = cluster_name
        runner = scheduler.runners.create_runner(job)
        runner.cluster_name = cluster_name
        scheduler._runners[job.job_id] = runner

        allocation = multicluster.cluster(cluster_name).try_allocate(
            processors, owner=job.name, kind="grid"
        )
        if allocation is None:
            raise RestoreError(
                f"cluster {cluster_name!r} cannot re-allocate {processors} "
                f"processors for running job {job.name!r}"
            )
        gram_job = GramJob(owner=job.name, processors=processors)
        gram_job.allocation = allocation
        gram_job.submitted_at = job.start_time
        gram_job.active_at = job.start_time
        endpoint = multicluster.gram(cluster_name)
        endpoint.jobs.append(gram_job)
        endpoint.submitted_count += 1
        runner.gram_jobs.append(gram_job)

        application = RunningApplication(
            env,
            job.profile,
            processors,
            job_id=job.name,
            adaptation_point_interval=scheduler.config.adaptation_point_interval,
            rng=scheduler.streams["applications"],
        )
        application.record.submit_time = job.submit_time
        application.record.start_time = job.start_time
        application.record.allocation_series.record(job.start_time, processors)
        runner.application = application
        scheduler._running[job.job_id] = job
        rehydrated[job.name] = (runner, application, _fromhex(running["finish"]))

    # The rebuilt allocations must reproduce the captured idle counters
    # exactly — a mismatch means the checkpoint and the rebuilt cluster
    # model disagree about capacity, and every later placement would differ.
    captured_idle = {name: int(v) for name, v in data["idle"].items()}
    actual_idle = {name: int(v) for name, v in dict(multicluster.state.idle_view()).items()}
    if actual_idle != captured_idle:
        raise RestoreError(
            f"idle processors after rebuild {actual_idle} != captured {captured_idle}"
        )

    counters = data["counters"]
    scheduler._accepted_count = int(counters["accepted"])
    scheduler._finished_count = int(counters["finished"])
    scheduler._failed_count = int(counters["failed"])
    in_flight = len(data["queued"]) + len(data["running"])
    if scheduler._accepted_count - scheduler._finished_count - scheduler._failed_count != in_flight:
        raise RestoreError(
            f"counters {counters} inconsistent with {in_flight} in-flight job(s)"
        )

    kis = scheduler.kis
    kis._snapshot = KisSnapshot(
        time=_fromhex(data["kis"]["snapshot_time"]),
        idle_processors={
            name: int(v) for name, v in data["kis"]["snapshot_idle"].items()
        },
    )
    kis.next_poll_time = next_poll

    # Intent pass: create the owner of every pending timeout in ascending
    # original-event-id order (see the module docstring).
    submitter: Optional[WorkloadSubmitter] = None
    for intent in data["intents"]:
        kind = intent["kind"]
        if kind == "submit":
            if submitter is not None:
                raise RestoreError("duplicate submit intent in checkpoint")
            submitter = WorkloadSubmitter(
                env,
                scheduler,
                workload,
                registry=_profile_registry(config),
                start_index=cursor,
                retain_jobs=bool(data.get("retain_jobs", True)),
            )
        elif kind == "kis":
            kis.start_polling()
        elif kind == "app":
            try:
                runner, application, finish_at = rehydrated[intent["job"]]
            except KeyError:
                raise RestoreError(
                    f"intent references unknown running job {intent['job']!r}"
                ) from None
            # A started application: a later re-capture, set_allocation()
            # and abort() see it as running.
            application._started = True
            env.relay(partial(_resume_app, application, finish_at), URGENT)
            env.relay(partial(_resume_runner, runner), URGENT)
        else:
            raise RestoreError(f"unknown intent kind {kind!r}")
    if not kis._polling:
        raise RestoreError("checkpoint has no pending KIS poll intent")
    if submitter is None:
        if cursor != workload_size:
            raise RestoreError(
                f"cursor {cursor} < workload size {workload_size} but no "
                f"submission intent was captured"
            )
        # Fully submitted workload: the submitter exists only as bookkeeping
        # (its chain ends at the first advance).
        submitter = WorkloadSubmitter(
            env,
            scheduler,
            workload,
            registry=_profile_registry(config),
            start_index=cursor,
            retain_jobs=bool(data.get("retain_jobs", True)),
        )

    streams.restore_lane_states(data["lanes"])

    collector: Optional[WindowedCollector] = None
    if collect_windowed:
        window = (
            WindowedMetrics.from_dict(data["window"])
            if "window" in data
            else WindowedMetrics()
        )
        collector = WindowedCollector(window)
        scheduler.hooks.subscribe(collector)

    return SimulationRun(
        config=config,
        env=env,
        streams=streams,
        workload=workload,
        multicluster=multicluster,
        scheduler=scheduler,
        submitter=submitter,
        injector=None,
        collector=collector,
    )


# -- replay ------------------------------------------------------------------


def _restore_replay(
    data: Dict[str, Any], config: ExperimentConfig, workload=None
) -> SimulationRun:
    at = _fromhex(data["time"])
    run = SimulationRun.fresh(
        config,
        workload=workload,
        retain_jobs=bool(data.get("retain_jobs", True)),
        collect_windowed="window" in data,
    )
    _check_workload(data, run.workload)
    step_until(run.env, at)

    fingerprint = kernel_fingerprint(run.env)
    captured = data["kernel"]
    if fingerprint != captured:
        raise RestoreError(
            "replayed run did not re-reach the captured kernel state at "
            f"t={at}: replayed {_summarise(fingerprint)} != captured "
            f"{_summarise(captured)}"
        )
    if run.submitter.cursor != int(data["cursor"]):
        raise RestoreError(
            f"replayed submitter cursor {run.submitter.cursor} != captured "
            f"{data['cursor']}"
        )
    lanes = run.streams.lane_states()
    if lanes != data["lanes"]:
        raise RestoreError("replayed random-stream lanes differ from captured")
    if "window" in data and run.collector is not None:
        if run.collector.window.to_dict() != data["window"]:
            raise RestoreError(
                "replayed metrics window differs from captured "
                f"(digest {run.collector.window.digest} != {data['window'].get('digest')})"
            )
    return run


def _summarise(fingerprint: Dict[str, Any]) -> str:
    """Short human-readable form of a kernel fingerprint for error text."""
    return json.dumps(
        {
            "now": fingerprint.get("now"),
            "event_id": fingerprint.get("event_id"),
            "events_processed": fingerprint.get("events_processed"),
            "pending": len(fingerprint.get("pending", [])),
        },
        sort_keys=True,
    )
