"""The simulation workloads: their inputs, and one pass in a fresh interpreter.

``python3 perfbench/sim_pass.py <workload> <seed>`` is what ``run.py``
starts for every timed pass of ``paper-figures``, ``trace-churn`` and
``shard-bursts``.  The pass imports the program, expands the workload's
configurations (its inputs: the program builds each job list itself, as
``repro-cli`` does), and prints one JSON line with the clock reading at
which it was ready, the outcome of every simulated request and its peak
RSS.  The ready reading is a ``perf_counter`` value: ``perf_counter`` is
the system-wide monotonic clock on Linux, so the parent can subtract its
own reading taken before it started the interpreter.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import procs

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: The seed the recorded digests belong to (the scenarios' own default).
PINNED_SEED = 0

#: Key in ``digests.json`` of digests that hold on every seed.
ANY_SEED = "any"

#: Input seeds the passes of a run cycle through: pass *i* of a run with
#: seed *s* simulates input seed ``s * INPUT_SEEDS + i % INPUT_SEEDS``, so a
#: run's medians average over input variation as well as timing noise.
INPUT_SEEDS = 5

#: Jobs per configuration.  paper-figures runs the paper's size; the other
#: two are sized so that one pass takes a few seconds on a 2-core host.
#: trace-churn stays at 400: from about 800 jobs on, the rigid churn run's
#: time depends on the seed by up to a factor of two (4.2-7.8 s at 800 on a
#: 2-core Intel Xeon), which no bound the benchmark may set would absorb.
PAPER_JOBS = 300
CHURN_JOBS = 400
SHARD_JOBS = 20_000

SIM_WORKLOADS = ("paper-figures", "trace-churn", "shard-bursts")


def scenario_configs(names: Tuple[str, ...], job_count: int, seed: int) -> List[Tuple[str, Any]]:
    """``(label, config)`` of every run of the named registered scenarios.

    Labels carry the scenario name and drop the ``@seed`` suffix, so the
    same request has the same label on every seed.
    """
    from repro.experiments.scenarios import get_scenario, strip_seed_suffix

    pairs = []
    for name in names:
        for label, config in get_scenario(name).expand(job_count=job_count, seed=seed):
            pairs.append((f"{name}:{strip_seed_suffix(label)}", config))
    return pairs


def configs_for(workload: str, seed: int) -> List[Tuple[str, Any]]:
    """The requests of one simulation workload."""
    if workload == "paper-figures":
        return scenario_configs(("figure7", "figure8"), PAPER_JOBS, seed)
    if workload == "trace-churn":
        return scenario_configs(("churn-replay", "trace-load-sweep"), CHURN_JOBS, seed)
    if workload == "shard-bursts":
        # The bursts are deterministic: the registered builder ignores its
        # random stream and the configuration has no background load, so
        # every seed gives the same input and the same digest.
        from repro.checkpoint.shard import shard_bench_config

        return [("shard-replay:shard-bursts/rigid", shard_bench_config(SHARD_JOBS, seed))]
    raise ValueError(f"not a simulation workload: {workload!r}")


def metrics_digest(metrics: Any) -> str:
    """The per-run digest: SHA-256 over ``metrics.to_dict()``."""
    from repro.service.protocol import metrics_digest as record_digest

    return record_digest({"metrics": metrics.to_dict()})


def simulate(label: str, config: Any, *, shard: bool, force_sequential: bool = False,
             profiler: Any = None) -> Tuple[Any, Dict[str, Any]]:
    """Run one request through the program's public entry point.

    ``run_experiment(config)`` or, with *shard*, ``shard_replay(config)``,
    each building its own workload as ``repro-cli`` does.  Only that call is
    timed (and profiled, given a *profiler*).  Returns the result and what
    the checks need: digest, completion and job counts.
    """
    if shard:
        from repro.checkpoint.shard import shard_replay
    else:
        from repro.experiments.setup import run_experiment
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    if shard:
        result = shard_replay(config, force_sequential=force_sequential)
    else:
        result = run_experiment(config)
    seconds = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
    if shard:
        outcome = {
            "digest": result.metrics.digest,
            "finished": int(result.metrics.jobs),
            "submitted": sum(window.jobs for window in result.windows),
            "windows": len(result.windows),
            "valid_windows": int(result.valid_windows),
            "workers": int(result.workers),
        }
    else:
        outcome = {
            "digest": metrics_digest(result.metrics),
            "finished": int(result.metrics.job_count),
            "submitted": len(result.workload.jobs),
        }
    outcome.update(
        label=label,
        seconds=seconds,
        all_done=bool(result.all_done),
        events=int(result.events_processed),
    )
    return result, outcome


def input_seed(seed: int, index: int) -> int:
    """The input seed of pass *index* of a run with *seed*."""
    return seed * INPUT_SEEDS + index % INPUT_SEEDS


def load_recorded(workload: str, seed: int, inputs: int) -> Optional[Dict[str, str]]:
    """Recorded digests of *workload* at input seed *inputs*, or ``None``.

    Digests are recorded for the pinned seed's inputs, except that a
    workload whose input does not depend on the seed (shard-bursts) has
    one entry under :data:`ANY_SEED`, which holds on every seed.
    """
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    if ANY_SEED in recorded:
        return recorded[ANY_SEED]
    if seed != PINNED_SEED:
        return None
    return recorded[str(inputs)]


def run_problem(outcome: Dict[str, Any], recorded: Optional[Dict[str, str]]) -> str:
    """Why one simulated request's result is wrong, or ``""``."""
    label = outcome["label"]
    if not outcome["all_done"]:
        return f"{label}: truncated before every job finished"
    if outcome["finished"] != outcome["submitted"]:
        return f"{label}: finished {outcome['finished']} of {outcome['submitted']} jobs"
    if recorded is not None and outcome["digest"] != recorded.get(label):
        return f"{label}: digest {outcome['digest'][:12]} differs from the recorded one"
    return ""


def main(argv: List[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    shard = workload == "shard-bursts"
    if shard:
        import repro.checkpoint.shard  # noqa: F401 - imported during set-up
    else:
        import repro.experiments.setup  # noqa: F401 - imported during set-up
    pairs = configs_for(workload, seed)
    ready = time.perf_counter()
    outcomes = [simulate(label, config, shard=shard)[1] for label, config in pairs]
    # This interpreter's own peak, and that of the pool workers it forked
    # and waited for (forked, not started by exec, so their own figures).
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    peak_rss_mb = max(procs.high_water_mb(), workers)
    sys.stdout.write(json.dumps({"ready": ready, "runs": outcomes, "peak_rss_mb": peak_rss_mb}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
