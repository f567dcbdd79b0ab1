"""A policy in a single new file plugs into every surface without edits.

This is the acceptance test of the policy-API redesign: registering a policy
with one ``@register`` decorator — no changes to the scheduler, manager or
CLI — makes it listable by ``repro-cli list policies``, constructible with
parameters from a :class:`~repro.experiments.scenarios.ScenarioSpec` and
runnable end-to-end.
"""

from __future__ import annotations

import os
import textwrap

import pytest

from repro.experiments.cli import main
from repro.experiments.scenarios import ScenarioSpec, policy_variants
from repro.experiments.setup import ExperimentConfig, run_experiment
from repro.koala.placement import PlacementPolicy, WorstFit
from repro.policies import names, register
from repro.policies.registry import _ALIASES, _REGISTRY


@pytest.fixture
def scratch_registration():
    before_registry = dict(_REGISTRY)
    before_aliases = dict(_ALIASES)
    yield
    _REGISTRY.clear()
    _REGISTRY.update(before_registry)
    _ALIASES.clear()
    _ALIASES.update(before_aliases)


CUSTOM_POLICY_SOURCE = textwrap.dedent(
    '''
    """A user-supplied placement policy living outside the repro package."""

    from repro.koala.placement import WorstFit
    from repro.policies import register


    @register("placement", "FIRSTFIT")
    class FirstFit(WorstFit):
        """Place components on the first cluster that fits (alphabetical)."""

        name = "FIRSTFIT"

        def __init__(self, reverse: bool = False) -> None:
            self.reverse = reverse

        def place(self, job, idle_processors, multicluster):
            ordered = sorted(idle_processors, reverse=self.reverse)
            view = {name: idle_processors[name] for name in ordered}
            return super().place(job, view, multicluster)
    '''
)


def test_single_file_policy_reaches_every_surface(
    tmp_path, capsys, scratch_registration
):
    module_path = tmp_path / "my_policies.py"
    module_path.write_text(CUSTOM_POLICY_SOURCE, encoding="utf-8")

    # Listable through the CLI, loaded from the file, no repo edits.
    exit_code = main(["--policy-module", str(module_path), "list", "policies"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "FIRSTFIT" in output
    assert "reverse=False" in output
    assert names("placement") == ("CF", "CM", "EASY", "FCM", "FIRSTFIT", "SJF", "WF")

    # Constructible with parameters from a scenario spec.
    spec = ScenarioSpec(
        name="custom-sweep",
        title="user policy sweep",
        base={"workload": "Wm", "malleability_policy": None},
        variants=policy_variants(
            "placement_policy",
            ("FIRSTFIT", "FIRSTFIT?reverse=True"),
            scenario="custom-sweep",
        ),
        default_job_count=2,
    )
    pairs = spec.expand(overrides={"background_fraction": 0.0})
    assert [config.placement_policy for _, config in pairs] == [
        "FIRSTFIT",
        "FIRSTFIT?reverse=True",
    ]

    # Runs end-to-end.
    result = run_experiment(pairs[1][1])
    assert result.all_done


def test_in_process_registration_is_enough(scratch_registration):
    @register("placement", "NOOPFIT")
    class NoopFit(WorstFit):
        """Worst-Fit under a different name."""

        name = "NOOPFIT"

    config = ExperimentConfig(
        placement_policy="NOOPFIT",
        malleability_policy=None,
        job_count=2,
        background_fraction=0.0,
    )
    assert config.placement_policy == "NOOPFIT"
    assert isinstance(NoopFit(), PlacementPolicy)
    result = run_experiment(config)
    assert result.all_done


def test_policy_module_flag_is_idempotent(tmp_path, capsys, scratch_registration, monkeypatch):
    from repro.policies.registry import POLICY_MODULES_ENV

    monkeypatch.delenv(POLICY_MODULES_ENV, raising=False)
    module_path = tmp_path / "repeat_policies.py"
    module_path.write_text(CUSTOM_POLICY_SOURCE, encoding="utf-8")
    argv = ["--policy-module", str(module_path), "--policy-module", str(module_path)]
    assert main(argv + ["list", "policies"]) == 0
    assert "FIRSTFIT" in capsys.readouterr().out
    # The module reference is exported (once) for sweep worker processes.
    assert os.environ[POLICY_MODULES_ENV].split(os.pathsep).count(
        str(module_path.resolve())
    ) == 1
    # A second invocation in the same process must not re-execute the module.
    assert main(argv + ["list", "policies"]) == 0
    assert "FIRSTFIT" in capsys.readouterr().out


def test_policy_file_with_stdlib_stem_still_loads(tmp_path, capsys, scratch_registration, monkeypatch):
    from repro.policies.registry import POLICY_MODULES_ENV

    monkeypatch.delenv(POLICY_MODULES_ENV, raising=False)
    # 'json' is already imported by the CLI; the file must load anyway and
    # must not shadow the real module.
    module_path = tmp_path / "json.py"
    module_path.write_text(CUSTOM_POLICY_SOURCE, encoding="utf-8")
    assert main(["--policy-module", str(module_path), "list", "policies"]) == 0
    assert "FIRSTFIT" in capsys.readouterr().out
    import json as real_json

    assert hasattr(real_json, "dumps")


def test_broken_policy_module_reports_cli_error(tmp_path, capsys, scratch_registration):
    module_path = tmp_path / "broken_policies.py"
    module_path.write_text("raise ValueError('boom at import')\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["--policy-module", str(module_path), "list", "policies"])
    assert "cannot import policy module" in capsys.readouterr().err
