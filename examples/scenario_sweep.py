#!/usr/bin/env python
"""Declare a custom scenario, sweep it in parallel, reuse cached results.

This example shows the three pieces the experiments layer is built on:

1. a **scenario** declared as data — base config, variants, seed grid —
   instead of a hand-written loop over ``run_experiment``;
2. the **sweep engine** fanning the runs out over worker processes while
   keeping results keyed and ordered exactly like the declaration;
3. the **result cache**: the second ``run_scenario`` call below does not
   simulate anything, it is served from disk.

Run it with::

    PYTHONPATH=src python examples/scenario_sweep.py
"""

from __future__ import annotations

import tempfile
import time

from repro.experiments.scenarios import ScenarioSpec, ScenarioVariant, run_scenario
from repro.metrics import summary_table

# Compare the two malleability policies across all four paper workloads at a
# reduced size: an 8-run grid, declared in a dozen lines.
SCENARIO = ScenarioSpec(
    name="policy-grid",
    title="FPSMA vs EGS across every paper workload",
    base={"approach": "PRA", "placement_policy": "WF"},
    variants=tuple(
        ScenarioVariant(
            f"{policy}/{workload}",
            {"malleability_policy": policy, "workload": workload},
        )
        for policy in ("FPSMA", "EGS")
        for workload in ("Wm", "Wmr", "W'm", "W'mr")
    ),
    default_job_count=40,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        started = time.perf_counter()
        results = run_scenario(SCENARIO, jobs=4, cache=cache_dir, seed=0)
        cold = time.perf_counter() - started

        started = time.perf_counter()
        run_scenario(SCENARIO, jobs=4, cache=cache_dir, seed=0)
        warm = time.perf_counter() - started

    print(
        summary_table(
            {label: result.metrics for label, result in results.items()},
            title=SCENARIO.title,
        )
    )
    print()
    print(f"cold sweep (4 workers): {cold:6.2f}s")
    print(f"warm sweep (cache hit): {warm:6.2f}s")


if __name__ == "__main__":
    main()
