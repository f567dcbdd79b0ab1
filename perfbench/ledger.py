"""The traced run: where the time of one workload goes, layer by layer.

It runs in one process and has four parts:

* spans: the benchmark wraps public functions of the program's modules
  (``Environment.run``, ``build_workload``, ``build_system``,
  ``ExperimentMetrics.from_run``, ``plan_windows``, ...) and keeps a span per
  call in memory: name, start, end, parent and run id;
* profile: ``cProfile`` self time and exact call counts, grouped by
  ``repro.<module>``, with builtins and numpy charged to their caller;
* program traces: ``repro.obs`` tracing switched on through
  ``ExperimentConfig.trace``; the event, hook and queue-snapshot records are
  counted from the trace files;
* overhead: the wall time of the program-traced pass over the spans pass.

Each part replays the same requests, so the counts of one part divide those
of another.  ``daemon-mixed`` simulates in worker processes, so its ledger is
the service, store and codec rows, read from one daemon lifetime whose reads
and simulated requests run as two phases with a ``metrics`` snapshot after
each.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import daemon_mix
import measure
import sim_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

PER_LAYER: Dict[str, str] = {
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.events_per_job": "events/job",
    "sim.timeouts_per_job": "events/job",
    "sim.bare_events_per_job": "events/job",
    "sim.process_events_per_job": "events/job",
    "sim.conditions_per_job": "events/job",
    "sim.resource_events_per_job": "events/job",
    "sim.peak_pending": "events",
    "sim.events_per_s": "events/s",
    "cluster.self_s": "s",
    "cluster.calls": "count",
    "koala.self_s": "s",
    "koala.place_attempts": "count",
    "koala.place_yield": "ratio",
    "koala.kis_updates_per_job": "updates/job",
    "malleability.self_s": "s",
    "malleability.grow_messages": "count",
    "malleability.shrink_messages": "count",
    "dynaco.self_s": "s",
    "apps.self_s": "s",
    "policies.self_s": "s",
    "policies.hook_events_per_job": "events/job",
    "faults.self_s": "s",
    "faults.jobs_killed": "count",
    "faults.resubmissions": "count",
    "faults.shrink_rescues": "count",
    "workloads.self_s": "s",
    "workloads.build_s": "s",
    "metrics.self_s": "s",
    "metrics.collect_s": "s",
    "metrics.record_kb": "KB",
    "metrics.codec_ms": "ms",
    "experiments.self_s": "s",
    "experiments.import_s": "s",
    "experiments.build_system_s": "s",
    "checkpoint.self_s": "s",
    "checkpoint.plan_s": "s",
    "checkpoint.window_yield": "ratio",
    "checkpoint.parallel_efficiency": "ratio",
    "service.self_s": "s",
    "service.hit_p50_ms": "ms",
    "service.hit_tail_ms": "ms",
    "service.op_ms": "ms",
    "service.transport_ms": "ms",
    "service.job_s": "s",
    "service.pool_wait_ms": "ms",
    "service.store_get_ms": "ms",
    "service.store_put_ms": "ms",
    "service.executions": "count",
    "service.coalesced": "count",
    "service.store_served": "count",
    "service.read_share": "ratio",
    "obs.self_s": "s",
    "obs.trace_overhead": "ratio",
    "repro.self_s": "s",
}

#: ``ev`` record types counted per group (the ``sim.*_per_job`` rows).
EVENT_GROUPS = {
    "Timeout": "timeouts",
    "Event": "bare_events",
    "Initialize": "process_events",
    "Process": "process_events",
    "Condition": "conditions",
    "AllOf": "conditions",
    "AnyOf": "conditions",
    "Request": "resource_events",
    "Release": "resource_events",
}

#: Fresh interpreters timed for ``experiments.import_s``.
IMPORT_SAMPLES = 3


class Spans:
    """Spans kept in memory: name, start, end, parent and run id."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.run: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        self.records.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
        })
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index]["end"] = time.perf_counter()

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def spanned(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return spanned

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)


def span_targets() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` of every wrapped public function.

    Modules that import a function by name hold their own reference to it,
    so each such reference is wrapped where it is looked up.
    """
    import repro.checkpoint.runner as runner
    import repro.checkpoint.shard as shard
    import repro.experiments.setup as setup
    from repro.metrics.collector import ExperimentMetrics
    from repro.sim.core import Environment

    return [
        (Environment, "run", "sim.run"),
        (runner, "step_until", "sim.run"),
        (setup, "build_workload", "workloads.build"),
        (shard, "build_workload", "workloads.build"),
        (setup, "build_system", "experiments.build_system"),
        (runner, "build_system", "experiments.build_system"),
        (ExperimentMetrics, "from_run", "metrics.collect"),
        (shard, "plan_windows", "checkpoint.plan"),
    ]


@contextmanager
def spanned(spans: Spans) -> Iterator[None]:
    """Wrap every span target for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name in span_targets():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            if isinstance(original, classmethod):
                setattr(owner, attribute, staticmethod(spans.wrap(name, getattr(owner, attribute))))
            else:
                setattr(owner, attribute, spans.wrap(name, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def import_seconds() -> float:
    """Median time to import the entry module in a fresh interpreter."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import repro.experiments.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        output = subprocess.run(
            [sys.executable, "-c", probe, str(ROOT / "src")],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
        ).stdout
        samples.append(float(output.strip().splitlines()[-1]))
    return measure.median(samples)


def count_trace(path: Path) -> Dict[str, int]:
    """Event, hook and queue-snapshot counts of one ``repro.obs`` trace."""
    from repro.obs.trace import read_trace

    counts = {group: 0 for group in set(EVENT_GROUPS.values())}
    counts.update(events=0, hooks=0, job_placed=0, kis_updated=0, peak_pending=0)
    for record in read_trace(path):
        kind = record.get("k")
        if kind == "ev":
            counts["events"] += 1
            group = EVENT_GROUPS.get(record.get("e"))
            if group is not None:
                counts[group] += 1
        elif kind == "hook":
            counts["hooks"] += 1
            if record.get("e") in ("job_placed", "kis_updated"):
                counts[record["e"]] += 1
        elif kind == "queue":
            counts["peak_pending"] = max(counts["peak_pending"], int(record["pending"]))
    return counts


def codec_costs(records: List[Dict[str, Any]]) -> Tuple[float, float]:
    """Median size (KB) of a result record and median encode+decode time (ms)."""
    from repro.experiments.engine import record_to_result

    sizes, times = [], []
    for record in records:
        started = time.perf_counter()
        text = json.dumps(record, sort_keys=True)
        record_to_result(json.loads(text))
        times.append((time.perf_counter() - started) * 1000.0)
        sizes.append(len(text.encode("utf-8")) / 1024.0)
    return measure.median(sizes), measure.median(times)


def run_requests(workload: str, pairs, ok, recorded, *, spans: Optional[Spans] = None,
                 profiler: Optional[cProfile.Profile] = None, sequential: bool = True,
                 trace_dir: Optional[Path] = None):
    """Simulate every request once; returns ``(results, outcomes, seconds)``.

    With *trace_dir* every run writes a ``repro.obs`` trace there; the
    shard engine writes no event records, so shard-bursts is then run
    serially through ``run_experiment``, whose digest is not the recorded
    completion digest.
    """
    shard = workload == "shard-bursts" and trace_dir is None
    if workload == "shard-bursts" and not shard:
        recorded = None
    results, outcomes = [], []
    for label, config in pairs:
        if spans is not None:
            spans.run = label
        if trace_dir is not None:
            config = config.with_overrides(trace=str(trace_dir / f"{len(outcomes)}.jsonl"))
        result, outcome = sim_pass.simulate(
            label, config, shard=shard, force_sequential=sequential, profiler=profiler
        )
        ok.check(sim_pass.run_problem(outcome, recorded))
        results.append(result)
        outcomes.append(outcome)
    return results, outcomes, sum(outcome["seconds"] for outcome in outcomes)


def traced_run(workload: str, seed: int, ok) -> Tuple[Dict[str, float], Dict[str, str], Dict[str, Any]]:
    """Per-layer metrics of one workload (see the module docstring)."""
    values = {name: 0.0 for name in PER_LAYER}
    values["experiments.import_s"] = import_seconds()
    if workload == "daemon-mixed":
        recorded = sim_pass.load_recorded(workload, seed, seed)
        notes, detail = traced_daemon(seed, values, ok, recorded)
        return values, notes, detail

    # The traced run replays the inputs of the timed run's first pass.
    inputs_seed = sim_pass.input_seed(seed, 0)
    recorded = sim_pass.load_recorded(workload, seed, inputs_seed)
    pairs = sim_pass.configs_for(workload, inputs_seed)
    notes: Dict[str, str] = {}

    # Spans, on the same untraced path the timed passes take (the shard
    # windows replayed in-process, so the spans see them).
    spans = Spans()
    with spanned(spans):
        results, outcomes, untraced_s = run_requests(workload, pairs, ok, recorded, spans=spans)
    spans.run = None
    jobs = sum(outcome["finished"] for outcome in outcomes)
    events = sum(outcome["events"] for outcome in outcomes)
    values["sim.run_s"] = spans.total("sim.run")
    values["sim.events_per_job"] = events / jobs
    values["sim.events_per_s"] = events / values["sim.run_s"]
    values["workloads.build_s"] = spans.total("workloads.build")
    values["experiments.build_system_s"] = spans.total("experiments.build_system")
    values["metrics.collect_s"] = spans.total("metrics.collect")
    values["checkpoint.plan_s"] = spans.total("checkpoint.plan")

    # Profile: the same requests under cProfile.
    profiler = cProfile.Profile()
    run_requests(workload, pairs, ok, recorded, profiler=profiler)
    table = pstats.Stats(profiler).stats
    self_time = measure.self_time_by_layer(table)
    for layer in measure.LAYERS:
        values[f"{layer}.self_s"] = self_time[layer]
    values["repro.self_s"] = sum(self_time[layer] for layer in measure.LAYERS)
    values["cluster.calls"] = measure.calls_by_layer(table)["cluster"]
    values["koala.place_attempts"] = measure.calls_named(table, "place", ("koala", "policies"))
    ranked = sorted(measure.LAYERS, key=lambda layer: -self_time[layer])
    notes["repro.self_s"] = ", ".join(
        f"{layer} {100 * self_time[layer] / values['repro.self_s']:.1f}%" for layer in ranked[:6]
    )

    # Behaviour counts from the results themselves.
    if workload == "shard-bursts":
        shard = results[0]
        values["checkpoint.window_yield"] = shard.valid_windows / len(shard.windows)
        sequential_s = untraced_s
        started = time.perf_counter()
        pooled = run_requests(workload, pairs, ok, recorded, sequential=False)[0][0]
        pooled_s = time.perf_counter() - started
        values["checkpoint.parallel_efficiency"] = sequential_s / (pooled.workers * pooled_s)
        notes["checkpoint.parallel_efficiency"] = (
            f"{sequential_s:.2f}s in-process / ({pooled.workers} workers x {pooled_s:.2f}s pooled)"
        )
    else:
        for result in results:
            values["malleability.grow_messages"] += result.metrics.total_grow_messages
            values["malleability.shrink_messages"] += result.metrics.total_shrink_messages
            summary = result.metrics.summary()
            for key in ("jobs_killed", "resubmissions", "shrink_rescues"):
                values[f"faults.{key}"] += summary.get(key, 0.0)
        from repro.experiments.engine import result_to_record

        values["metrics.record_kb"], values["metrics.codec_ms"] = codec_costs(
            [result_to_record(result) for result in results]
        )

    # Program traces through ExperimentConfig.trace.  The shard engine's
    # step loop writes no event records, so shard-bursts traces the same
    # configuration run serially through run_experiment.
    trace_dir = WORK / f"trace-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        _, traced_outcomes, traced_s = run_requests(
            workload, pairs, ok, recorded, trace_dir=trace_dir
        )
        counts: Counter = Counter()
        peak_pending = 0
        for index in range(len(pairs)):
            found = count_trace(trace_dir / f"{index}.jsonl")
            peak_pending = max(peak_pending, found.pop("peak_pending"))
            counts.update(found)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    if workload != "shard-bursts":
        for outcome, traced in zip(outcomes, traced_outcomes):
            ok.check("" if traced["digest"] == outcome["digest"] else f"{traced['label']}: traced run differs")
        values["obs.trace_overhead"] = traced_s / untraced_s
    traced_jobs = sum(outcome["finished"] for outcome in traced_outcomes)
    for group in set(EVENT_GROUPS.values()):
        values[f"sim.{group}_per_job"] = counts[group] / traced_jobs
    values["sim.peak_pending"] = peak_pending
    values["koala.kis_updates_per_job"] = counts["kis_updated"] / traced_jobs
    values["policies.hook_events_per_job"] = counts["hooks"] / traced_jobs
    values["koala.place_yield"] = counts["job_placed"] / values["koala.place_attempts"]
    notes["sim.events_per_job"] = f"{events} events / {jobs} jobs"
    detail = {"spans": spans.records, "trace_counts": dict(counts, peak_pending=peak_pending),
              "outcomes": outcomes}
    return values, notes, detail


def traced_daemon(seed: int, values: Dict[str, float], ok, recorded) -> Tuple[Dict[str, str], Dict[str, Any]]:
    """The service, store and codec rows from one two-phase daemon lifetime."""
    from repro.service.store import ResultStore

    mix = daemon_mix.build_mixes(seed)[0]
    base = WORK / f"daemon-{os.getpid()}"
    template, workdir = base / "template", base / "life"
    try:
        filled = daemon_mix.fill_store(mix, template)
        expected = dict(filled, **(recorded or {}))
        workdir.mkdir(parents=True)
        reads = (mix.reads[0::2], mix.reads[1::2])
        simulated = daemon_mix.Mix(reads=[], misses=mix.misses, pairs=mix.pairs).scripts()
        life = daemon_mix.daemon_lifetime(ROOT, template, workdir, [reads, simulated], snapshot_metrics=True)
        daemon_mix.verify_lifetime(life, mix, expected, ok)

        store = ResultStore(workdir / "store")
        gets, puts, records = [], [], []
        for key in sorted(store.keys()):
            started = time.perf_counter()
            record = store.get(key)
            gets.append((time.perf_counter() - started) * 1000.0)
            started = time.perf_counter()
            store.put(key, record)
            puts.append((time.perf_counter() - started) * 1000.0)
            records.append(record)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    def histogram(snapshot, name):
        entry = snapshot["service"].get(name) or {"count": 0, "sum": 0.0}
        return entry["count"], entry["sum"]

    read_count, read_sum = histogram(life.metrics[0], "service.op.run_and_wait.seconds")
    all_count, all_sum = histogram(life.metrics[1], "service.op.run_and_wait.seconds")
    job_count, job_sum = histogram(life.metrics[1], "service.job.seconds")
    hits, misses = daemon_mix.reply_latencies(life)
    op_ms = 1000.0 * read_sum / read_count
    transport_ms = sum(hits) / len(hits) - op_ms
    hit_tail, hit_percentile = measure.tail(hits)
    values["service.hit_p50_ms"] = measure.median(hits)
    values["service.hit_tail_ms"] = hit_tail
    job_s = job_sum / job_count
    values["service.op_ms"] = op_ms
    values["service.transport_ms"] = transport_ms
    values["service.job_s"] = job_s
    values["service.pool_wait_ms"] = sum(misses) / len(misses) - 1000.0 * job_s - transport_ms
    values["service.store_get_ms"] = measure.median(gets)
    values["service.store_put_ms"] = measure.median(puts)
    for name in ("executions", "coalesced", "store_served"):
        values[f"service.{name}"] = life.status[name]
    values["service.read_share"] = daemon_mix.read_share(life)
    values["metrics.record_kb"], values["metrics.codec_ms"] = codec_costs(records)
    notes = {
        "service.hit_tail_ms": f"p{hit_percentile:.1f} of {len(hits)} reads",
        "service.op_ms": f"daemon-side mean over {read_count} reads",
        "service.job_s": f"mean over {job_count} executions; "
                         f"{all_count - read_count} simulated requests",
        "service.store_get_ms": f"median of {len(gets)} entries",
    }
    return notes, {"status": life.status, "metrics": life.metrics}


def reference_digests(seed: int) -> Dict[str, Dict[str, Dict[str, str]]]:
    """Digests of every request a run with *seed* makes, simulated in-process.

    Keyed by workload, then by input seed (or ``sim_pass.ANY_SEED``), then
    by request label.
    """
    from repro.checkpoint.shard import shard_replay
    from repro.experiments.setup import run_experiment

    recorded: Dict[str, Dict[str, Dict[str, str]]] = {}
    for workload in sim_pass.SIM_WORKLOADS:
        if workload == "shard-bursts":
            # The serial digest: one window holding every job, in-process.
            # The bursts do not depend on the seed, so it holds on every seed.
            recorded[workload] = {sim_pass.ANY_SEED: {
                label: shard_replay(config, min_gap=float("inf")).metrics.digest
                for label, config in sim_pass.configs_for(workload, seed)
            }}
            continue
        recorded[workload] = {}
        for index in range(sim_pass.INPUT_SEEDS):
            inputs = sim_pass.input_seed(seed, index)
            recorded[workload][str(inputs)] = {
                label: sim_pass.simulate(label, config, shard=False)[1]["digest"]
                for label, config in sim_pass.configs_for(workload, inputs)
            }
    requests = {request.label: request.config for mix in daemon_mix.build_mixes(seed) for request in mix.requests}
    recorded["daemon-mixed"] = {str(seed): {
        label: sim_pass.metrics_digest(run_experiment(config).metrics) for label, config in requests.items()
    }}
    return recorded
