"""Every entry point that simulates frees its run when it returns.

A run's object graph (environment, scheduler, runners, clusters) is cyclic,
so reference counting never frees it.  An entry point builds, runs and reads
it under one GC pause whose closing young-generation collection frees it; a
run that survives that collection is promoted, and stays until a full
collection.  The entry-point tests call no ``gc.collect()``: what an entry
point leaves behind is what they see.  The last test does collect, to look
at what a run leaves to the cyclic collector.
"""

from __future__ import annotations

import gc
import inspect
import os

import pytest

from repro.checkpoint import run_checkpointed, shard_bench_config, shard_replay
from repro.cluster.gram import GramJob
from repro.experiments.engine import _execute_record
from repro.experiments.scenarios import get_scenario
from repro.experiments.setup import run_experiment
from repro.koala.scheduler import KoalaScheduler
from repro.metrics.collector import ExperimentMetrics
from repro.service.daemon import _execute_checkpointed
from repro.sim.core import Environment
from repro.workloads.bursts import burst_workload


def _figure7(job_count: int = 20):
    _label, config = get_scenario("figure7").expand(job_count=job_count, seed=0)[0]
    return config


def _cyclic_garbage_of(simulate) -> list:
    """The objects only the cyclic collector would free after *simulate*.

    *simulate* runs with the collector off (so an entry point's GC pause is
    a no-op and frees nothing), then one collection under
    ``gc.DEBUG_SAVEALL`` keeps everything it finds unreachable.  The debug
    flags, ``gc.garbage`` and collection are restored afterwards.
    """
    gc.collect()
    flags = gc.get_debug()
    saved = list(gc.garbage)
    gc.disable()
    try:
        simulate()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
        gc.enable()


def _live_runs() -> list:
    """The live environments and schedulers.

    The list holds them, so none of them can be freed, and its identities
    cannot be reused, while a simulation runs.
    """
    return [obj for obj in gc.get_objects() if isinstance(obj, (Environment, KoalaScheduler))]


def _leaves_no_run(simulate) -> None:
    before = _live_runs()
    simulate()
    after = _live_runs()
    assert len(after) == len(before), "a simulated run is still alive"


def test_run_experiment_frees_its_runs():
    config = _figure7()
    _leaves_no_run(lambda: [run_experiment(config) for _ in range(5)])


def test_a_traced_run_experiment_frees_its_run(tmp_path):
    config = _figure7().with_overrides(trace=str(tmp_path / "run.jsonl"))
    _leaves_no_run(lambda: run_experiment(config))
    assert (tmp_path / "run.jsonl").stat().st_size > 0


def test_a_sequential_shard_replay_frees_every_window():
    config = shard_bench_config(600, seed=0)
    workload = burst_workload(600, burst_size=150, gap=900.0)
    result = None

    def replay():
        nonlocal result
        result = shard_replay(config, workload=workload, force_sequential=True)

    _leaves_no_run(replay)
    assert len(result.windows) == 4 and result.all_done


def test_run_checkpointed_frees_the_run_it_builds():
    config = _figure7()
    _leaves_no_run(lambda: run_checkpointed(config, checkpoint_every=600.0))


def test_the_pool_worker_entry_point_frees_its_run():
    fields = _figure7().to_dict()
    _leaves_no_run(lambda: _execute_record(fields))


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
def test_the_checkpointed_worker_frees_its_run(tmp_path, resume):
    config = _figure7()
    directory = tmp_path / "ck"
    if resume:
        # What a worker that died mid-run leaves behind: one checkpoint.
        out = run_checkpointed(config, checkpoint_every=600.0, path=directory / "state.ckpt")
        assert out["checkpoint_paths"]
        for path in out["checkpoint_paths"][:-1]:
            os.unlink(path)
    outcome = {}
    _leaves_no_run(
        lambda: outcome.update(_execute_checkpointed(config.to_dict(), 600.0, str(directory)))
    )
    assert outcome["all_done"]
    assert (outcome["resumed_at"] is not None) == resume


def test_consecutive_runs_keep_the_object_count_flat():
    config = _figure7()
    run_experiment(config)
    first = len(gc.get_objects())
    for _ in range(19):
        run_experiment(config)
    grown = len(gc.get_objects()) - first
    # One run's graph is about 1,300 objects at 20 jobs: none of it may stay.
    assert grown < 200


def test_collection_is_back_on_after_a_run_that_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("metrics failed")

    monkeypatch.setattr(ExperimentMetrics, "from_run", broken)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="metrics failed"):
        run_experiment(_figure7(job_count=5))
    assert gc.isenabled()


def test_a_dropped_run_leaves_no_gram_job_or_generator_to_the_cyclic_collector():
    """A simulation holds no generator frames, and a finished callback chain
    (a stub-claim walk included) keeps nothing alive: reference counting
    frees what a chain held as soon as it ends, even under a run's GC pause.
    So once a run is dropped, no GRAM job is left to the cyclic collector."""
    label, config = get_scenario("figure7").expand(job_count=60, seed=0)[0]
    assert label == "FPSMA/Wm" and config.job_count == 60
    garbage = _cyclic_garbage_of(lambda: run_experiment(config))
    assert any(isinstance(obj, Environment) for obj in garbage)
    assert not [obj for obj in garbage if isinstance(obj, GramJob)]
    assert not [obj for obj in garbage if inspect.isgenerator(obj)]
