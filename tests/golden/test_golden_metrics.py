"""Golden-metrics snapshot tests.

Each case runs one registered scenario at a pinned tiny job count and seed
and compares a *field-level* digest of the produced metrics against a
committed ``GOLDEN_<scenario>.json`` file.  A drift fails with the exact
labels and fields that changed (expected vs. measured), never with a bare
hash mismatch — so a reviewer can tell a deliberate behaviour change from a
determinism bug at a glance.

Refreshing after an intentional change::

    REPRO_GOLDEN_UPDATE=1 python -m pytest tests/golden -q

then commit the rewritten ``GOLDEN_*.json`` files.

The digests store values rounded to 6 decimals: enough precision to catch
any real behavioural change, coarse enough to be stable across interpreter
and numpy releases in the CI matrix.

The exact cases (``GOLDEN_<scenario>-exact.json``) pin, per label, the
run's kernel event count and its full-precision metrics digest, so they
also catch a change that costs more work for the same outcome.  Their
digests hash full-precision floats recorded on Python 3.11, so they carry
the ``bench`` marker: the default run deselects them, and on Python 3.11
``python -m pytest tests/golden -m bench -q`` compares (or, with
``REPRO_GOLDEN_UPDATE=1``, refreshes) them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.experiments.scenarios import get_scenario, run_scenario, scenario_report
from repro.metrics.collector import run_digest

GOLDEN_DIR = Path(__file__).parent

#: Environment variable that rewrites the golden files instead of comparing.
UPDATE_ENV = "REPRO_GOLDEN_UPDATE"

#: Scenario -> pinned run parameters.  Small enough for the tier-1 loop,
#: large enough that every policy in the scenario does real work.
GOLDEN_CASES: Dict[str, Dict[str, int]] = {
    "figure7": {"job_count": 8, "seed": 0},
    "figure8": {"job_count": 6, "seed": 0},
    "trace-replay": {"job_count": 10, "seed": 0},
    "fault-sweep": {"job_count": 8, "seed": 0},
}

#: Scenario -> job count of the exact cases, all at seed 0.
EXACT_CASES: Dict[str, int] = {
    "figure7": 40,
    "trace-replay": 40,
    "fault-sweep": 40,
    "churn-replay": 40,
    "shard-replay": 500_000,
}

#: The only fields an exact case holds per label.
EXACT_FIELDS = ("digest", "events_processed")

#: Decimal places golden values are rounded to (cross-version stability).
ROUND_DIGITS = 6


def _rounded(value: float) -> float:
    return round(float(value), ROUND_DIGITS)


def scenario_digest(results) -> Dict[str, Dict[str, Any]]:
    """Field-level digest of a scenario's merged results.

    Per variant label: the headline summary statistics, the job count, and
    the submit/finish horizon — every number a behaviour change would move,
    each under its own key so drifts diff field by field.
    """
    digest: Dict[str, Dict[str, Any]] = {}
    for label in sorted(results):
        metrics = results[label].metrics
        fields: Dict[str, Any] = {
            "job_count": int(metrics.job_count),
            "unfinished_jobs": int(metrics.unfinished_jobs),
        }
        for key, value in metrics.summary().items():
            fields[key] = _rounded(value)
        if metrics.jobs:
            fields["first_submit_time"] = _rounded(
                min(job.submit_time for job in metrics.jobs)
            )
            fields["last_finish_time"] = _rounded(
                max(job.finish_time for job in metrics.jobs)
            )
            fields["total_grow_count"] = int(sum(j.grow_count for j in metrics.jobs))
            fields["total_shrink_count"] = int(sum(j.shrink_count for j in metrics.jobs))
        digest[label] = fields
    return digest


def exact_digest(results) -> Dict[str, Dict[str, Any]]:
    """Per label: the kernel event count and the full-precision run digest."""
    return {
        label: {
            "digest": run_digest(results[label].metrics.to_dict()),
            "events_processed": int(results[label].events_processed),
        }
        for label in sorted(results)
    }


def _exact_measurement(scenario: str) -> Dict[str, Dict[str, Any]]:
    job_count = EXACT_CASES[scenario]
    if scenario != "shard-replay":
        return exact_digest(
            run_scenario(scenario, job_count=job_count, seed=0, jobs=1, cache=None)
        )
    # The sharded replay runs through the shard engine, and its digest is
    # the merged-window digest.
    from repro.checkpoint.shard import shard_bench_config, shard_replay

    result = shard_replay(shard_bench_config(job_count, 0))
    assert result.all_done
    [(label, _config)] = get_scenario(scenario).expand(job_count=job_count, seed=0)
    return {
        label: {"digest": result.metrics.digest, "events_processed": result.events_processed}
    }


def field_diff(
    expected: Dict[str, Dict[str, Any]], measured: Dict[str, Dict[str, Any]]
) -> List[str]:
    """Human-readable list of every differing (label, field) pair."""
    differences: List[str] = []
    for label in sorted(set(expected) | set(measured)):
        if label not in expected:
            differences.append(f"  {label}: unexpected new variant label")
            continue
        if label not in measured:
            differences.append(f"  {label}: variant label disappeared")
            continue
        have, got = expected[label], measured[label]
        for field in sorted(set(have) | set(got)):
            if field not in have:
                differences.append(f"  {label} / {field}: new field = {got[field]!r}")
            elif field not in got:
                differences.append(
                    f"  {label} / {field}: field disappeared (was {have[field]!r})"
                )
            elif have[field] != got[field]:
                differences.append(
                    f"  {label} / {field}: expected {have[field]!r}, got {got[field]!r}"
                )
    return differences


def _golden_path(scenario: str) -> Path:
    return GOLDEN_DIR / f"GOLDEN_{scenario}.json"


def _exact_path(scenario: str) -> Path:
    return GOLDEN_DIR / f"GOLDEN_{scenario}-exact.json"


def _render_json(digest: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps(digest, indent=2, sort_keys=True) + "\n"


def _compare_or_update(path: Path, measured: Any, render) -> None:
    """Shared compare/refresh logic for JSON digests and text reports."""
    if os.environ.get(UPDATE_ENV):
        path.write_text(render(measured), encoding="utf-8")
        return
    if not path.exists():
        pytest.fail(
            f"missing golden file {path.name}; bootstrap it with "
            f"{UPDATE_ENV}=1 python -m pytest {Path(__file__).parent} and commit it"
        )
    if path.suffix == ".json":
        expected = json.loads(path.read_text(encoding="utf-8"))
        differences = field_diff(expected, measured)
        if differences:
            pytest.fail(
                f"golden metrics drift in {path.name} "
                f"({len(differences)} field(s)):\n"
                + "\n".join(differences)
                + f"\n\nIf the change is intentional, refresh with "
                f"{UPDATE_ENV}=1 and commit the new golden file.",
                pytrace=False,
            )
    else:
        expected_text = path.read_text(encoding="utf-8")
        if expected_text != measured:
            import difflib

            diff = "\n".join(
                difflib.unified_diff(
                    expected_text.splitlines(),
                    measured.splitlines(),
                    fromfile=f"golden/{path.name}",
                    tofile="measured",
                    lineterm="",
                )
            )
            pytest.fail(
                f"golden report drift in {path.name}:\n{diff}\n\n"
                f"If intentional, refresh with {UPDATE_ENV}=1 and commit.",
                pytrace=False,
            )


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CASES))
def test_scenario_metrics_match_golden_digest(scenario):
    parameters = GOLDEN_CASES[scenario]
    results = run_scenario(
        scenario,
        job_count=parameters["job_count"],
        seed=parameters["seed"],
        jobs=1,
        cache=None,
    )
    _compare_or_update(_golden_path(scenario), scenario_digest(results), _render_json)


@pytest.mark.bench
@pytest.mark.parametrize("scenario", sorted(EXACT_CASES))
def test_scenario_events_and_digests_match_exact_golden(scenario):
    _compare_or_update(_exact_path(scenario), _exact_measurement(scenario), _render_json)


def test_figure6_report_matches_golden_text():
    # Figure 6 is a static report (the applications' scaling curves); its
    # golden form is the rendered text itself, diffed line by line.
    report = scenario_report("figure6") + "\n"
    _compare_or_update(GOLDEN_DIR / "GOLDEN_figure6.txt", report, lambda text: text)


@pytest.mark.parametrize("scenario", ["figure7", "figure8"])
def test_six_panel_report_matches_golden_text(scenario):
    # The rendered six panels of the golden runs: pins the probes, titles,
    # the plot and the time-series panels, which the digests do not cover.
    results = run_scenario(scenario, jobs=1, cache=None, **GOLDEN_CASES[scenario])
    report = scenario_report(scenario, results) + "\n"
    _compare_or_update(GOLDEN_DIR / f"GOLDEN_{scenario}.txt", report, lambda text: text)


def test_field_diff_pinpoints_changed_fields():
    # The diff helper itself is load-bearing for debuggability: it must name
    # the label and field, not just report an inequality.
    expected = {"EGS/Wm": {"jobs": 8, "mean_response_time": 100.0}}
    measured = {"EGS/Wm": {"jobs": 8, "mean_response_time": 101.5}}
    differences = field_diff(expected, measured)
    assert differences == [
        "  EGS/Wm / mean_response_time: expected 100.0, got 101.5"
    ]
    assert field_diff(expected, expected) == []
    # Added/removed labels and fields are each called out explicitly.
    assert any(
        "disappeared" in line for line in field_diff(expected, {})
    )
    assert any(
        "new field" in line
        for line in field_diff(expected, {"EGS/Wm": {**expected["EGS/Wm"], "extra": 1}})
    )


@pytest.mark.parametrize("scenario", sorted(EXACT_CASES))
def test_exact_golden_holds_the_expanded_labels_and_two_fields(scenario):
    committed = json.loads(_exact_path(scenario).read_text(encoding="utf-8"))
    labels = [
        label
        for label, _config in get_scenario(scenario).expand(
            job_count=EXACT_CASES[scenario], seed=0
        )
    ]
    assert sorted(committed) == sorted(labels)
    for fields in committed.values():
        assert sorted(fields) == sorted(EXACT_FIELDS)


@pytest.mark.parametrize("scenario", sorted(set(EXACT_CASES) - {"shard-replay"}))
def test_exact_digest_is_the_same_from_the_result_cache(tmp_path, monkeypatch, scenario):
    # What the exact cases pin is what the scenario simulated, not how it
    # was run: a run served wholly from the result cache digests the same.
    from repro.experiments import engine
    from repro.experiments.engine import ResultCache

    uncached = run_scenario(scenario, job_count=3, seed=0, jobs=1, cache=None)
    cache = ResultCache(tmp_path / "cache")
    run_scenario(scenario, job_count=3, seed=0, cache=cache)

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("run_experiment called on the warm cache path")

    monkeypatch.setattr(engine, "run_experiment", explode)
    cached = run_scenario(scenario, job_count=3, seed=0, cache=cache)
    assert exact_digest(cached) == exact_digest(uncached)


#: A measured exact mapping, for the compare/refresh tests below.
MEASURED = {
    "EGS/Wm": {"digest": "a" * 64, "events_processed": 4337},
    "FPSMA/Wm": {"digest": "b" * 64, "events_processed": 4262},
}


@pytest.fixture()
def exact_file(tmp_path, monkeypatch):
    monkeypatch.delenv(UPDATE_ENV, raising=False)
    path = tmp_path / "GOLDEN_case-exact.json"
    path.write_text(_render_json(MEASURED), encoding="utf-8")
    return path


@pytest.mark.parametrize("field, edited", [("events_processed", 4338), ("digest", "c" * 64)])
def test_compare_fails_naming_an_edited_exact_field(exact_file, field, edited):
    committed = json.loads(exact_file.read_text(encoding="utf-8"))
    committed["EGS/Wm"][field] = edited
    exact_file.write_text(_render_json(committed), encoding="utf-8")
    with pytest.raises(pytest.fail.Exception) as failure:
        _compare_or_update(exact_file, MEASURED, _render_json)
    expected, got = repr(edited), repr(MEASURED["EGS/Wm"][field])
    assert f"  EGS/Wm / {field}: expected {expected}, got {got}" in str(failure.value)
    assert "FPSMA/Wm" not in str(failure.value)


def test_compare_fails_on_a_stale_extra_field(exact_file):
    committed = json.loads(exact_file.read_text(encoding="utf-8"))
    committed["FPSMA/Wm"]["metrics_digest"] = "b" * 64
    exact_file.write_text(_render_json(committed), encoding="utf-8")
    with pytest.raises(pytest.fail.Exception, match="FPSMA/Wm / metrics_digest: field disappeared"):
        _compare_or_update(exact_file, MEASURED, _render_json)


def test_compare_without_a_golden_fails_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv(UPDATE_ENV, raising=False)
    path = tmp_path / "GOLDEN_case-exact.json"
    with pytest.raises(pytest.fail.Exception, match="missing golden file GOLDEN_case-exact.json"):
        _compare_or_update(path, MEASURED, _render_json)
    assert list(tmp_path.iterdir()) == []


def test_refresh_writes_the_measured_mapping_and_the_next_compare_passes(
    tmp_path, monkeypatch
):
    path = tmp_path / "GOLDEN_case-exact.json"
    monkeypatch.setenv(UPDATE_ENV, "1")
    _compare_or_update(path, MEASURED, _render_json)
    assert json.loads(path.read_text(encoding="utf-8")) == MEASURED
    monkeypatch.delenv(UPDATE_ENV)
    _compare_or_update(path, MEASURED, _render_json)
