"""Tracing must observe, never perturb: traced == untraced, always.

The property test sweeps seeds and policies and requires the traced run's
metrics to digest identically to the untraced run's — the observability
layer is a pure observer.  Same-seed
traces must additionally be byte-identical files (the foundation of
``repro-cli trace diff``).
"""

from __future__ import annotations

from functools import partial
from heapq import heappush

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.setup import ExperimentConfig, run_experiment
from repro.metrics import run_digest
from repro.obs.trace import load_trace, validate_trace


def _digest(result) -> str:
    return run_digest(result.metrics.to_dict())


def _config(seed, policy, **overrides):
    return ExperimentConfig(
        name="traced-prop",
        workload="Wm",
        job_count=6,
        seed=seed,
        malleability_policy=policy,
        **overrides,
    )


@settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(["FPSMA", "EGS", None]),
)
def test_traced_and_untraced_runs_digest_identically(tmp_path_factory, seed, policy):
    target = tmp_path_factory.mktemp("traces") / f"{seed}.jsonl"
    untraced = run_experiment(_config(seed, policy))
    traced = run_experiment(_config(seed, policy, trace=str(target)))
    assert _digest(traced) == _digest(untraced)
    records = load_trace(target)
    assert validate_trace(records) == []
    assert records[-1]["k"] == "run_end"
    assert records[-1]["digest"] == _digest(traced)


def test_same_seed_traces_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        run_experiment(_config(3, "FPSMA", trace=str(path)))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_records_one_ev_per_fired_event(tmp_path):
    target = tmp_path / "t.jsonl"
    result = run_experiment(_config(0, "FPSMA", trace=str(target)))
    records = load_trace(target)
    fired = [record for record in records if record["k"] == "ev"]
    assert len(fired) == result.events_processed
    assert records[-1]["events"] == result.events_processed
    times = [record["t"] for record in fired]
    assert times == sorted(times)


def test_queue_snapshots_do_not_perturb_the_run(tmp_path, monkeypatch):
    """Frequent ``queue`` snapshots change the trace, never the simulation.

    Each snapshot follows the ``ev`` record of the event it counts, at that
    event's time, and counts every event fired before it.
    """
    from repro.sim.core import Environment

    monkeypatch.setattr(Environment, "TRACE_QUEUE_SNAPSHOT_EVERY", 7)
    target = tmp_path / "t.jsonl"
    untraced = run_experiment(_config(1, "EGS"))
    traced = run_experiment(_config(1, "EGS", trace=str(target)))
    assert _digest(traced) == _digest(untraced)
    assert traced.events_processed == untraced.events_processed

    records = load_trace(target)
    fired = 0
    snapshots = 0
    for previous, record in zip(records, records[1:]):
        if record["k"] == "ev":
            fired += 1
        elif record["k"] == "queue":
            snapshots += 1
            assert previous["k"] == "ev"
            assert record["t"] == previous["t"]
            assert record["processed"] == fired
            assert record["pending"] >= 0
    # One snapshot per seven events of each run() chunk.
    assert 0 < snapshots <= traced.events_processed // 7


def test_different_seed_traces_diverge_in_simulation_records(tmp_path):
    from repro.obs.cli import diff_traces

    paths = {}
    for seed in (0, 1):
        paths[seed] = tmp_path / f"seed{seed}.jsonl"
        run_experiment(_config(seed, "FPSMA", trace=str(paths[seed])))
    divergence = diff_traces(load_trace(paths[0]), load_trace(paths[1]))
    assert divergence is not None
    index, ra, rb = divergence
    assert ra is not None and rb is not None
    # The first divergent record is a simulated one, not metadata.
    assert ra["k"] not in ("header", "run_start")


def test_env_var_activates_tracing(tmp_path, monkeypatch):
    target = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(target))
    run_experiment(_config(0, "FPSMA"))
    assert target.exists()
    assert validate_trace(load_trace(target)) == []


def test_trace_field_changes_the_cache_key():
    from repro.experiments.engine import config_key

    plain = _config(0, "FPSMA")
    traced = _config(0, "FPSMA", trace="/tmp/t.jsonl")
    assert config_key(plain) != config_key(traced)


def test_tracer_detaches_after_the_run(tmp_path):
    from repro.sim.core import Environment

    run_experiment(_config(0, "FPSMA", trace=str(tmp_path / "t.jsonl")))
    env = Environment()
    assert env._tracer is None


def _pushes_raw(env) -> bool:
    """Whether *env* schedules through the plain ``heappush`` binding."""
    push = env._push
    return isinstance(push, partial) and push.func is heappush and push.args[0] is env._heap


def test_disabled_tracing_leaves_the_hot_path_untouched():
    """set_tracer(None) must restore the raw heap-push fast path."""
    from repro.sim.core import Environment

    env = Environment()
    assert env._tracer is None
    assert _pushes_raw(env)

    class Sink:
        def write(self, record):
            pass

        def close(self):
            pass

    from repro.obs.trace import Tracer

    env.set_tracer(Tracer(Sink()))
    assert not _pushes_raw(env)
    env.set_tracer(None)
    assert _pushes_raw(env)


def test_run_experiment_without_trace_never_attaches_a_tracer(monkeypatch):
    from repro.sim.core import Environment

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    attached = []
    original = Environment.set_tracer

    def spy(self, tracer):
        attached.append(tracer)
        return original(self, tracer)

    monkeypatch.setattr(Environment, "set_tracer", spy)
    run_experiment(_config(0, "FPSMA"))
    assert attached == []
