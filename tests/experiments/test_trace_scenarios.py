"""Trace scenarios end-to-end: registry, engine, policy grid, determinism, CLI.

The trace workload axis must compose with everything the experiment layer
already guarantees for synthetic workloads: every registered placement ×
malleability policy completes a tiny trace replay, serial and parallel
sweeps of the trace scenarios are byte-identical, and the CLI paths
(``list traces``, ``run trace-replay``, ``--trace``/``--load-factor``)
work end-to-end.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.scenarios import get_scenario, run_scenario
from repro.experiments.setup import ExperimentConfig, run_experiment
from repro.policies import names

#: A tiny deterministic trace reference shared by the fast tests below.
TINY_TRACE = "trace:das3-synthetic?jobs=24&max_procs=32"

PLACEMENTS = names("placement")
MALLEABILITY = names("malleability") + (None,)


def sweep_digest(results) -> str:
    return json.dumps(
        {label: result.metrics.to_dict() for label, result in sorted(results.items())},
        sort_keys=True,
    )


# -- registry -----------------------------------------------------------------


def test_trace_scenarios_are_registered():
    replay = get_scenario("trace-replay")
    assert not replay.is_static
    assert all(
        variant.overrides.get("malleability_policy", "x") is not None
        or variant.label.startswith("no-malleability")
        for variant in replay.variants
    )
    sweep = get_scenario("trace-load-sweep")
    factors = [variant.overrides["workload"] for variant in sweep.variants]
    assert all(workload.startswith("trace:") for workload in factors)
    assert len(set(factors)) == len(factors)


# -- cross-policy smoke grid ---------------------------------------------------


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("malleability", MALLEABILITY)
def test_every_policy_combination_completes_a_trace_replay(placement, malleability):
    config = ExperimentConfig(
        name=f"trace-grid-{placement}-{malleability}",
        workload=TINY_TRACE,
        job_count=3,
        placement_policy=placement,
        malleability_policy=malleability,
        approach="PRA",
        background_fraction=0.0,
        seed=0,
    )
    result = run_experiment(config)
    assert result.all_done, (
        f"trace replay under {placement}/{malleability} did not finish"
    )
    assert result.metrics.job_count == 3


def test_trace_grid_results_are_serial_parallel_identical():
    # The same grid rows must not depend on which process ran them: spot-check
    # one scenario-shaped sweep over the policy axis through the engine.
    from repro.experiments.scenarios import ScenarioSpec, ScenarioVariant

    spec = ScenarioSpec(
        name="trace-grid-determinism",
        title="grid determinism probe",
        base={"workload": TINY_TRACE, "approach": "PRA", "background_fraction": 0.0},
        variants=tuple(
            ScenarioVariant(f"{policy}", {"malleability_policy": policy})
            for policy in ("FPSMA", "EGS", "AVERAGE_STEAL")
        ),
        default_job_count=4,
    )
    serial = run_scenario(spec, jobs=1, cache=None)
    parallel = run_scenario(spec, jobs=2, cache=None)
    assert sweep_digest(serial) == sweep_digest(parallel)


# -- scenario determinism ------------------------------------------------------


@pytest.mark.parametrize("scenario", ["trace-replay", "trace-load-sweep"])
def test_trace_scenarios_serial_vs_parallel_byte_identical(scenario):
    serial = run_scenario(scenario, job_count=6, seed=0, jobs=1, cache=None)
    parallel = run_scenario(scenario, job_count=6, seed=0, jobs=2, cache=None)
    assert sweep_digest(serial) == sweep_digest(parallel)


def test_trace_replay_results_are_cacheable(tmp_path):
    first = run_scenario("trace-replay", job_count=5, seed=0, jobs=1, cache=str(tmp_path))
    warm = run_scenario("trace-replay", job_count=5, seed=0, jobs=1, cache=str(tmp_path))
    assert sweep_digest(first) == sweep_digest(warm)
    assert list(tmp_path.glob("*.json"))


# -- CLI ----------------------------------------------------------------------


def test_cli_list_traces(capsys):
    assert cli_main(["list", "traces"]) == 0
    output = capsys.readouterr().out
    assert "das3-synthetic" in output
    assert "REPRO_TRACES_DIR" in output


def test_cli_run_trace_replay_end_to_end(capsys):
    code = cli_main(
        ["run", "trace-replay", "--job-count", "4", "--no-cache"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "das3-synthetic" in output


def test_cli_run_accepts_scenario_option(capsys):
    code = cli_main(
        ["run", "--scenario", "trace-replay", "--job-count", "3", "--no-cache"]
    )
    assert code == 0
    assert "das3-synthetic" in capsys.readouterr().out


def test_cli_run_rejects_conflicting_scenarios(capsys):
    with pytest.raises(SystemExit):
        cli_main(["run", "figure7", "--scenario", "trace-replay"])
    with pytest.raises(SystemExit):
        cli_main(["run"])


def test_cli_trace_options_override_the_workload(capsys):
    code = cli_main(
        [
            "run",
            "trace-replay",
            "--trace",
            "das3-synthetic",
            "--load-factor",
            "2",
            "--trace-malleable",
            "0.5",
            "--job-count",
            "3",
            "--no-cache",
        ]
    )
    assert code == 0
    assert "das3-synthetic" in capsys.readouterr().out


def test_cli_trace_options_require_a_trace():
    with pytest.raises(SystemExit):
        cli_main(["run", "trace-replay", "--load-factor", "2", "--no-cache"])


def test_cli_rejects_invalid_trace_inputs_as_argument_errors(capsys):
    # Bad trace references must fail at argument time with a pointed
    # parser error, like every other bad input — never a traceback mid-run.
    for argv in (
        ["run", "trace-replay", "--trace", "no-such-trace", "--no-cache"],
        ["run", "trace-replay", "--trace", "das3-synthetic", "--load-factor", "-2"],
        ["run", "trace-replay", "--trace", "das3-synthetic", "--trace-malleable", "1.5"],
        ["custom", "--trace", "das3-synthetic", "--trace-window", "oops"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()  # drain the usage/error output per case


def test_cli_custom_accepts_a_trace_path(tmp_path, capsys):
    from repro.workloads import SwfWriter, synthetic_das3_trace

    path = tmp_path / "tiny.swf"
    SwfWriter().write(synthetic_das3_trace(jobs=6), path)
    code = cli_main(
        ["custom", "--trace", str(path), "--job-count", "4", "--policy", "EGS"]
    )
    assert code == 0
    assert "cli-custom" not in capsys.readouterr().err
