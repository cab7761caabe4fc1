#!/usr/bin/env python3
"""Check that the benchmark is steady on this host.

    python3 perfbench/spread.py --workload stream_srv --runs 10 --first-seed 100

Runs run.py once per seed (first-seed, first-seed+1, ...) with
BENCHMARK.json's run_seconds, then prints, for every end-to-end metric,
the median of the runs and the distance between their first and third
quartile as a share of that median, next to the metric's bound. A spread
above the bound means the benchmark cannot tell a regression of that size
from host noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            sys.exit(f"spread.py: seed {seed} failed: {result}")
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = benchlib.iqr_spread(vals)
        ok = spread <= m["bound"]
        worst = max(worst, spread / m["bound"])
        print(f"{m['name']:14s} median {statistics.median(vals):14.6g} "
              f"spread {spread:7.4f} bound {m['bound']:5.2f} "
              f"{'ok' if ok else 'TOO WIDE'}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
