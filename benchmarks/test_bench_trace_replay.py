"""Benchmarks of the trace-driven workload subsystem.

Three contracts at scale (all ``bench``-marked, deselected from the tier-1
loop):

* **Flat ingestion memory** — streaming a 50k-job trace from disk through
  the full transform + conversion pipeline allocates no more than streaming
  a 5k-job trace: peak allocation is independent of trace length, so the
  process RSS of a replay is set by the simulation state, never by
  ingestion.
* **Streaming == materialised** — replaying through
  :class:`~repro.workloads.traces.StreamingWorkload` produces byte-identical
  metrics to the materialising registry path.
* **50k-job end-to-end replay** — the full trace replays through the
  simulator via the streaming path and every job finishes; serial and
  parallel sweeps of the ``trace-replay`` scenario agree byte-for-byte at a
  scale well beyond the tier-1 smoke sizes.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.experiments.scenarios import run_scenario
from repro.experiments.setup import ExperimentConfig, run_experiment
from repro.metrics import run_digest
from repro.workloads import (
    StreamingWorkload,
    SwfReader,
    SwfWriter,
    stream_trace_jobspecs,
    synthetic_das3_trace,
)

pytestmark = pytest.mark.bench

#: The bundled synthetic trace at benchmark scale.  load_factor=3 keeps the
#: modelled DAS-3 busy but stable (the run drains instead of saturating).
BIG_TRACE = "trace:das3-synthetic?jobs=50000&load_factor=3&max_procs=32&malleable=0.5"


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """A 50k-job synthetic trace written to disk (streamed, never in memory)."""
    path = tmp_path_factory.mktemp("traces") / "das3-50k.swf"
    SwfWriter(header=["synthetic DAS-3 benchmark trace"]).write(
        synthetic_das3_trace(jobs=50_000), path
    )
    return path


def _peak_streaming_bytes(path, max_jobs) -> int:
    """Peak allocation while running the full ingestion pipeline from disk."""
    from repro.workloads.traces import LoadFactor, ShrinkProcessors, apply_transforms
    from repro.workloads.swf import iter_jobspecs

    tracemalloc.start()
    try:
        records = apply_transforms(
            SwfReader().iter_records(path), [LoadFactor(3.0), ShrinkProcessors(32)]
        )
        count = 0
        last = None
        for spec in iter_jobspecs(records, malleable_fraction=0.5, max_jobs=max_jobs):
            count += 1
            last = spec
        assert count == max_jobs and last is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_50k_trace_streams_with_flat_memory(trace_file):
    """Ingestion peak is independent of trace length.

    Peak *allocation* (tracemalloc) is the right per-phase proxy for peak
    RSS here: ``resource.ru_maxrss`` is a process-wide high watermark, so it
    cannot distinguish the two streams inside one process.  If the pipeline
    materialised records or specs, the 50k stream would allocate roughly 10x
    the 5k stream (~tens of MB); streaming keeps both at the constant
    overhead of the reader + one in-flight record.
    """
    small_peak = _peak_streaming_bytes(trace_file, 5_000)
    large_peak = _peak_streaming_bytes(trace_file, 50_000)
    print(f"\npeak ingestion allocation: 5k jobs {small_peak / 1e3:.0f}kB, "
          f"50k jobs {large_peak / 1e3:.0f}kB")
    # Flat: the 10x longer stream may not even double peak allocation.
    assert large_peak < 2 * small_peak + 100_000
    # And absolutely small: far below what 50k materialised records need.
    assert large_peak < 5_000_000


def _metrics_digest(result) -> str:
    return run_digest(result.metrics.to_dict())


def test_streaming_replay_matches_materialised_replay():
    reference = "trace:das3-synthetic?jobs=4000&load_factor=3&max_procs=32&malleable=0.5"
    config = ExperimentConfig(
        name="trace-stream-vs-materialised",
        workload=reference,
        job_count=3_000,
        malleability_policy="EGS",
        background_fraction=0.0,
        time_limit=20_000_000.0,
    )
    materialised = run_experiment(config)  # registry path builds the full spec
    streaming = run_experiment(
        config, workload=StreamingWorkload.from_reference(reference, job_count=3_000)
    )
    assert materialised.all_done and streaming.all_done
    # The simulated outcomes must agree byte for byte.  (Total event counts
    # may differ slightly: the driver cannot know a streaming workload's
    # horizon upfront, so it advances in check-interval chunks and processes
    # a few extra poll timeouts after the last job finished.)
    assert _metrics_digest(materialised) == _metrics_digest(streaming)
    assert materialised.workload_duration == streaming.workload_duration


def test_50k_trace_replays_end_to_end_via_streaming():
    config = ExperimentConfig(
        name="trace-50k",
        workload=BIG_TRACE,
        job_count=50_000,
        malleability_policy="EGS",
        background_fraction=0.0,
        time_limit=20_000_000.0,
    )
    workload = StreamingWorkload.from_reference(BIG_TRACE, job_count=50_000)
    result = run_experiment(config, workload=workload)
    assert result.all_done
    assert result.metrics.job_count == 50_000
    assert workload.submitted_count == 50_000
    print(
        f"\n50k-job streaming replay: {result.events_processed} events, "
        f"simulated {result.simulated_time:.0f}s"
    )


def test_trace_scenario_serial_vs_parallel_at_scale():
    def digest(results) -> str:
        return json.dumps(
            {label: r.metrics.to_dict() for label, r in sorted(results.items())},
            sort_keys=True,
        )

    serial = run_scenario("trace-replay", job_count=400, seed=0, jobs=1, cache=None)
    parallel = run_scenario("trace-replay", job_count=400, seed=0, jobs=2, cache=None)
    assert digest(serial) == digest(parallel)


def test_lazy_stream_head_of_a_100k_trace_is_instant(monkeypatch):
    # Pulling 10 specs off a nominally 100k-job trace must not generate the
    # other 99 990 records (laziness end to end through the ref pipeline).
    # Counted, not timed: the generator yields one record per spec pulled.
    import itertools

    from repro.workloads import traces

    generate = traces._synthetic_das3_records
    yielded = 0

    def counting(**kwargs):
        nonlocal yielded
        for record in generate(**kwargs):
            yielded += 1
            yield record

    monkeypatch.setattr(traces, "_synthetic_das3_records", counting)
    head = list(
        itertools.islice(
            stream_trace_jobspecs("trace:das3-synthetic?jobs=100000&load_factor=2"), 10
        )
    )
    assert len(head) == 10
    assert yielded == 10
