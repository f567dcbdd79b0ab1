#!/usr/bin/env python3
"""Run one workload on several seeds and report how far each metric spreads.

    python3 perfbench/spread.py --workload trace-churn --seeds 1,2,3,4,5

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of that median,
the figure each metric's ``bound`` in ``BENCHMARK.json`` is held to.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    runs = []
    for seed in args.seeds.split(","):
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", seed, "--seconds", str(seconds), "--trace", "0"]
        output = subprocess.run(command, cwd=HERE.parent, check=True, capture_output=True, text=True)
        result = json.loads(output.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT\n{output.stdout}", file=sys.stderr)
            return 1
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for name, bound in bounds.items():
        values = [run[name]["value"] for run in runs]
        spread = measure.quartile_spread(values)
        flag = "ok" if spread < bound / 3 else "WIDE" if spread < bound else "OVER"
        print(f"{name:14s} median {measure.median(values):12.5g}  spread {spread:7.4f}  "
              f"bound {bound:5.3f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
