#!/usr/bin/env python3
"""Benchmark of the KOALA reproduction: four workloads, measured end to end.

Run from the root of a checkout::

    python3 perfbench/run.py                       # every workload, timed and traced
    python3 perfbench/run.py --workload paper-figures
    python3 perfbench/run.py --workload daemon-mixed --seed 7 --seconds 30
    python3 perfbench/run.py --workload trace-churn --trace 1

With ``--trace 0`` (the default) a run is timed with all tracing off and
prints the end-to-end metrics; with ``--trace 1`` it is the traced run of
``ledger.py`` and prints the per-layer metrics.  Either way every output is
checked, the host fingerprint is printed, the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and
the full result (per pass, with the spans of a traced run) is written under
``.perfbench/results/``.  ``--record`` recomputes the digests of the pinned
seed into ``digests.json``, for use after a deliberate change of behaviour.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import daemon_mix
import measure
import sim_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = sim_pass.SIM_WORKLOADS + ("daemon-mixed",)

#: Passes a run makes at least: every input seed once, so that every
#: reported figure covers input variation as well as timing noise.
MIN_PASSES = sim_pass.INPUT_SEEDS

#: How long one simulation pass may take before it is killed as hung.
PASS_TIMEOUT = 60.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "req_per_s": "req/s",
    "miss_p50_ms": "ms",
    "miss_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Outcome:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, problem: str) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)
        return not problem


def host_fingerprint() -> Dict[str, Any]:
    """What makes numbers from two runs comparable, or not."""
    import numpy

    from repro.sim.calqueue import resolve_queue_name

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "queue": resolve_queue_name(),
        "system": f"{platform.system()}-{platform.machine()}",
    }


def sim_pass_once(workload: str, seed: int, index: int, ok: Outcome) -> Dict[str, Any]:
    """One pass in a fresh interpreter; returns its clock readings and latencies."""
    inputs = sim_pass.input_seed(seed, index)
    recorded = sim_pass.load_recorded(workload, seed, inputs)
    spawned = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "sim_pass.py"), workload, str(inputs)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(PASS_TIMEOUT, process.kill)
    watchdog.start()
    try:
        cold = json.loads(process.stdout.readline())
        good = [ok.check(sim_pass.run_problem(run, recorded)) for run in cold["runs"]]
        done = time.perf_counter()
        process.wait()
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        watchdog.cancel()
        process.stdout.close()
    setup, simulation = measure.split_phases(spawned, cold["ready"], done)
    return {
        "wall_s": done - spawned,
        "setup_s": setup,
        "phase_s": simulation,
        "jobs": sum(run["finished"] for run in cold["runs"]),
        "requests": len(cold["runs"]),
        "misses": [measure.request_latency(run["seconds"], passed) for run, passed in zip(cold["runs"], good)],
        "peak_rss_mb": cold["peak_rss_mb"],
        "input_seed": inputs,
        "runs": cold["runs"],
    }


def daemon_pass_once(mixes, template: Path, expected, index: int, ok: Outcome) -> Dict[str, Any]:
    """One daemon lifetime through the mix of its set."""
    mix = mixes[index % len(mixes)]
    workdir = WORK / f"daemon-{os.getpid()}" / f"life{index}"
    workdir.mkdir(parents=True)
    try:
        life = daemon_mix.daemon_lifetime(ROOT, template, workdir, [mix.scripts()])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    daemon_mix.verify_lifetime(life, mix, expected, ok)
    _, misses = daemon_mix.reply_latencies(life)
    loop = life.loop_end - life.loop_start
    return {
        "wall_s": life.verified - life.spawned,
        "setup_s": life.ready - life.spawned,
        "phase_s": loop,
        "jobs": daemon_mix.simulated_jobs(mix),
        "requests": daemon_mix.request_count(mix),
        "misses": misses,
        "peak_rss_mb": life.peak_rss_mb,
        "input_seed": index % len(mixes),
        "read_share": daemon_mix.read_share(life),
        "counters": {name: life.status.get(name) for name in ("executions", "coalesced", "store_served")},
    }


def summarize(passes: List[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of a run.

    Every input seed counts once however many passes it got.  Pass figures,
    the median miss latency among them, are medians per input seed, then
    over the seeds.  The tail latency needs a larger sample than one pass
    gives: it pools the requests of every pass, each weighted by one over
    the number of passes of its input seed.  The peak RSS is the largest of
    any pass's processes.
    """
    def over_seeds(figure) -> float:
        return measure.median_over_seeds((p["input_seed"], figure(p)) for p in passes)

    pool = measure.seed_weighted((p["input_seed"], p["misses"]) for p in passes)
    miss_tail, miss_pct = measure.weighted_tail(pool)
    values = {
        "wall_s": over_seeds(lambda p: p["wall_s"]),
        "setup_s": over_seeds(lambda p: p["setup_s"]),
        "jobs_per_s": over_seeds(lambda p: p["jobs"] / p["phase_s"]),
        "req_per_s": over_seeds(lambda p: p["requests"] / p["phase_s"]),
        "miss_p50_ms": over_seeds(lambda p: measure.median(p["misses"])),
        "miss_tail_ms": miss_tail,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    seeds = len({p["input_seed"] for p in passes})
    notes = {
        "miss_p50_ms": f"median of {len(passes[0]['misses'])} requests per pass",
        "miss_tail_ms": f"p{miss_pct:.1f} of {len(pool)} requests of {len(passes)} passes, "
                        f"weighing as one pass of each of {seeds} input seeds",
    }
    if "read_share" in passes[0]:
        notes["req_per_s"] = f"store-served reads took {over_seeds(lambda p: p['read_share']):.0%} of request time"
    return values, notes


def measure_passes(one_pass, seconds: float, ok: Outcome) -> List[Dict[str, Any]]:
    """Passes until at least :data:`MIN_PASSES` are made and *seconds* have gone.

    A pass that breaks down counts as one failed operation; the run goes on.
    """
    passes: List[Dict[str, Any]] = []
    attempts = 0
    started = time.perf_counter()
    while attempts < MIN_PASSES or time.perf_counter() - started < seconds:
        try:
            passes.append(one_pass(attempts))
        except (OSError, ValueError, KeyError, RuntimeError, subprocess.SubprocessError) as error:
            ok.check(f"pass {attempts}: {type(error).__name__}: {error}")
        attempts += 1
    if not passes:
        raise SystemExit("error: every pass failed:\n  " + "\n  ".join(ok.problems))
    return passes


def timed_run(workload: str, seed: int, seconds: float, ok: Outcome) -> Tuple[Dict[str, float], Dict[str, Any], List]:
    if workload != "daemon-mixed":
        passes = measure_passes(lambda index: sim_pass_once(workload, seed, index, ok), seconds, ok)
        return (*summarize(passes), passes)
    recorded = sim_pass.load_recorded(workload, seed, seed)
    mixes = daemon_mix.build_mixes(seed)
    template = WORK / f"daemon-{os.getpid()}" / "template"
    try:
        filled = daemon_mix.fill_store(mixes[0], template)
        if recorded is not None:
            for label, digest in filled.items():
                ok.check("" if digest == recorded.get(label) else f"{label}: filled digest differs")
        expected = dict(filled, **(recorded or {}))
        passes = measure_passes(
            lambda index: daemon_pass_once(mixes, template, expected, index, ok), seconds, ok
        )
    finally:
        shutil.rmtree(template.parent, ignore_errors=True)
    return (*summarize(passes), passes)


def json_number(value: float) -> float:
    """A failed request's latency is infinite; JSON has no infinity."""
    return value if math.isfinite(value) else 1e18


def record_digests() -> int:
    """Recompute the pinned seed's digests into ``digests.json``."""
    import ledger

    recorded = ledger.reference_digests(sim_pass.PINNED_SEED)
    sim_pass.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sim_pass.DIGESTS.name}: " + ", ".join(f"{k} {len(v)}" for k, v in recorded.items()))
    return 0


def run_one(workload: str, seed: int, seconds: float, trace: int, host) -> Tuple[Outcome, Dict[str, Any]]:
    """One timed or traced run of *workload*: prints its metrics, writes its result file."""
    ok = Outcome()
    began = time.perf_counter()
    if trace:
        import ledger

        values, notes, detail = ledger.traced_run(workload, seed, ok)
        units = ledger.PER_LAYER
    else:
        values, notes, detail = timed_run(workload, seed, seconds, ok)
        units = END_TO_END
    elapsed = time.perf_counter() - began

    print(f"perfbench {workload} seed={seed} trace={trace} ({elapsed:.1f}s)")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {values[name]:14.6g} {unit}{note}")
    print(f"  {'failed_ratio':32s} {measure.failed_ratio(ok.attempted, ok.failed):14.6g} "
          f"({ok.failed} of {ok.attempted} operations)")
    for problem in ok.problems:
        print(f"  FAILED: {problem}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(
            {"host": host, "metrics": values, "notes": notes, "detail": detail,
             "attempted": ok.attempted, "failed": ok.failed, "problems": ok.problems},
            indent=1,
        ) + "\n",
        encoding="utf-8",
    )
    return ok, {name: {"value": json_number(values[name]), "unit": unit} for name, unit in units.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                        help="one workload, or all of them, each timed and traced")
    parser.add_argument("--seed", type=int, default=sim_pass.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The daemon's socket path is relative to the root, where it is started.
    os.chdir(ROOT)
    # Settings of the calling shell (tracing, store budgets, extra policy
    # modules) must not change what is measured; the queue backend stays, as
    # a host property the fingerprint reports.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        if name != "REPRO_SIM_QUEUE":
            del os.environ[name]
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record_digests()

    host = host_fingerprint()
    print("host " + json.dumps(host, sort_keys=True))
    if args.workload != "all":
        ok, metrics = run_one(args.workload, args.seed, args.seconds, args.trace, host)
    else:
        ok, metrics = Outcome(), {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                one, found = run_one(workload, args.seed, args.seconds, trace, host)
                ok.attempted += one.attempted
                ok.failed += one.failed
                metrics.update({f"{workload}:{name}": value for name, value in found.items()})
    print(json.dumps({
        "correct": ok.failed == 0,
        "attempted": ok.attempted,
        "failed": ok.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
