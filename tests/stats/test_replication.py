"""Tests of multi-seed replication and replica grouping."""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import ScenarioSpec, ScenarioVariant
from repro.stats import ReplicaSet, group_replicas, replicate


def tiny_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        name="stats-test",
        title="statistics layer test grid",
        variants=(
            ScenarioVariant("EGS/Wm", {"malleability_policy": "EGS"}),
            ScenarioVariant("FPSMA/Wm", {"malleability_policy": "FPSMA"}),
        ),
        base={"workload": "Wm", "approach": "PRA", "placement_policy": "WF"},
        default_job_count=3,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def test_replicate_groups_by_variant_across_the_seed_grid():
    replicas = replicate(tiny_spec(), seeds=(0, 1, 2))
    assert list(replicas) == ["EGS/Wm", "FPSMA/Wm"]
    for replica in replicas.values():
        assert replica.count == 3
        assert replica.seeds == (0, 1, 2)
        samples = replica.samples("mean_response_time")
        assert len(samples) == 3
        assert all(value >= 0.0 for value in samples)


def test_resilience_metrics_default_to_zero_without_faults():
    replicas = replicate(tiny_spec(), seeds=(0,))
    replica = replicas["EGS/Wm"]
    assert replica.samples("jobs_lost") == [0.0]
    assert replica.samples("wasted_processor_seconds") == [0.0]


def test_unknown_metric_raises_with_the_known_keys_listed():
    replicas = replicate(tiny_spec(), seeds=(0,))
    with pytest.raises(KeyError, match="mean_response_time"):
        replicas["EGS/Wm"].samples("mean_responze_time")


def test_replicate_validates_the_seed_grid():
    with pytest.raises(ValueError, match="at least one seed"):
        replicate(tiny_spec(), seeds=())
    with pytest.raises(ValueError, match="non-negative"):
        replicate(tiny_spec(), seeds=(0, -1))
    with pytest.raises(ValueError, match="distinct"):
        replicate(tiny_spec(), seeds=(1, 1))


def test_replicate_rejects_static_scenarios():
    static = ScenarioSpec(name="static-test", title="static", builder=lambda: "text")
    with pytest.raises(ValueError, match="static"):
        replicate(static, seeds=(0,))


def test_daemon_backed_replication_rejects_local_execution_knobs():
    with pytest.raises(ValueError, match="daemon-backed"):
        replicate(tiny_spec(), seeds=(0,), client=object(), jobs=2)


def test_group_replicas_merges_seed_suffixed_labels():
    results = {}
    for seed in (0, 1):
        per_seed = replicate(tiny_spec(), seeds=(seed,))
        for label, replica in per_seed.items():
            results[f"{label}@seed{seed}"] = replica.results[0]
    grouped = group_replicas(results)
    assert list(grouped) == ["EGS/Wm", "FPSMA/Wm"]
    assert all(isinstance(r, ReplicaSet) and r.count == 2 for r in grouped.values())
    assert grouped["EGS/Wm"].seeds == (0, 1)
