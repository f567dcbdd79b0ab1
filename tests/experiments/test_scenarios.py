"""Tests of the declarative scenario registry and spec expansion."""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import (
    ScenarioSpec,
    ScenarioVariant,
    get_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    scenario_names,
    scenario_report,
)


def test_registry_contains_every_figure_table_and_ablation():
    names = scenario_names()
    for expected in (
        "figure6",
        "figure7",
        "figure8",
        "table1",
        "ablation-approach",
        "ablation-policy",
        "ablation-threshold",
        "ablation-overhead",
        "ablation-reconfiguration",
        "ablation-placement",
        "ablation-background",
        "tournament",
    ):
        assert expected in names
    with pytest.raises(ValueError):
        get_scenario("nope")


def test_figure7_expansion_matches_the_papers_grid():
    spec = get_scenario("figure7")
    pairs = spec.expand(job_count=10, seed=2)
    # A non-default seed is part of the label: dropping it would collide
    # with the seed-0 expansion of the same grid.
    assert [label for label, _ in pairs] == [
        "FPSMA/Wm@seed2",
        "FPSMA/Wmr@seed2",
        "EGS/Wm@seed2",
        "EGS/Wmr@seed2",
    ]
    for label, config in pairs:
        assert config.job_count == 10
        assert config.seed == 2
        assert config.approach == "PRA"
        assert config.placement_policy == "WF"
    assert pairs[0][1].malleability_policy == "FPSMA"
    assert pairs[2][1].workload == "Wm"


def test_expansions_under_different_seeds_never_share_labels():
    """Regression: ``expand(seed=N)`` used to drop the ``@seed<N>`` suffix,
    so expansions under different root seeds collided on merge."""
    spec = get_scenario("figure7")
    merged = {}
    for seed in (0, 1, 2):
        for label, config in spec.expand(job_count=4, seed=seed):
            assert label not in merged, f"label collision: {label!r}"
            merged[label] = config
    assert len(merged) == 3 * len(spec.variants)
    # The spec's own sole default seed keeps the bare label...
    assert "FPSMA/Wm" in merged
    # ...and every other root seed is spelled out.
    assert "FPSMA/Wm@seed1" in merged and "FPSMA/Wm@seed2" in merged


def test_strip_seed_suffix_strips_the_seed_suffix():
    from repro.experiments.scenarios import strip_seed_suffix

    assert strip_seed_suffix("EGS/Wm@seed7") == "EGS/Wm"
    assert strip_seed_suffix("EGS/Wm") == "EGS/Wm"


def test_figure8_base_carries_the_saturating_background():
    spec = get_scenario("figure8")
    _, config = spec.expand(job_count=5)[0]
    assert config.approach == "PWA"
    assert config.background_fraction  # the heavy Figure 8 profile
    assert config.workload == "W'm"


def test_static_scenarios_refuse_to_expand_but_report():
    spec = get_scenario("table1")
    assert spec.is_static
    with pytest.raises(ValueError):
        spec.expand()
    assert "Table I" in scenario_report(spec)
    assert "Figure 6" in scenario_report("figure6")


def test_seed_grid_expands_with_distinct_labels_and_seeds():
    spec = ScenarioSpec(
        name="grid-test",
        title="grid",
        base={"workload": "Wm", "malleability_policy": "EGS"},
        variants=(ScenarioVariant("EGS/Wm", {}),),
        seeds=(0, 10),
        default_job_count=4,
    )
    pairs = spec.expand()
    assert [label for label, _ in pairs] == ["EGS/Wm@seed0", "EGS/Wm@seed10"]
    assert [config.seed for _, config in pairs] == [0, 10]
    assert spec.run_count() == 2
    # A caller-provided seed collapses the grid to a single seed.
    assert [config.seed for _, config in spec.expand(seed=5)] == [5]


def test_explicit_overrides_win_over_base_and_variant():
    spec = get_scenario("figure7")
    _, config = spec.expand(job_count=5, overrides={"grow_threshold": 9})[0]
    assert config.grow_threshold == 9


def test_register_scenario_rejects_duplicates_unless_overwritten():
    spec = ScenarioSpec(name="dup-test", title="dup")
    register_scenario(spec)
    try:
        with pytest.raises(ValueError):
            register_scenario(spec)
        register_scenario(spec, overwrite=True)  # explicit overwrite is fine
    finally:
        import repro.experiments.scenarios as scenarios

        scenarios._SCENARIOS.pop("dup-test", None)


def test_run_scenario_returns_results_keyed_by_variant_label():
    # The non-default seed stays in the key (collision fix);
    # strip_seed_suffix gives the bare label back.
    results = run_scenario("ablation-approach", job_count=5, seed=1)
    assert sorted(results) == ["PRA/EGS/W'm@seed1", "PWA/EGS/W'm@seed1"]
    for result in results.values():
        assert result.metrics.job_count <= 5
    report = scenario_report("ablation-approach", results)
    assert "Ablation study: approach" in report


def test_default_reporter_is_a_summary_table():
    spec = ScenarioSpec(
        name="plain-test",
        title="Plain sweep",
        base={"workload": "Wm", "malleability_policy": None},
        variants=(ScenarioVariant("none/Wm", {}),),
        default_job_count=3,
    )
    report = scenario_report(spec, run_scenario(spec))
    assert "Plain sweep" in report and "none/Wm" in report


@pytest.mark.parametrize("name", scenario_names())
def test_every_registered_scenario_renders_its_report(name):
    # Regression: the shard-replay reporter called the ``job_count``
    # property, so ``repro-cli run shard-replay`` raised TypeError after
    # its simulation had finished.
    spec = get_scenario(name)
    results = None if spec.is_static else run_scenario(spec, job_count=3)
    assert scenario_report(spec, results)
    if not spec.is_static:
        # A sweep scenario is rendered from results; it never runs itself.
        with pytest.raises(ValueError, match="pass its results"):
            scenario_report(spec)


def test_iter_scenarios_is_sorted_and_complete():
    listed = [spec.name for spec in iter_scenarios()]
    assert listed == sorted(listed)
    assert set(listed) >= set(scenario_names())
