#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1,2,3,4,5] [--trace 0]

Run from the repository root. Runs perfbench/run.py once per seed, then
prints, for each metric, the median of the runs and the distance between
the first and third quartile as a share of the median (the spread that
BENCHMARK.json's bounds are set against), next to a third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", seed, "--seconds",
               str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.strip().split("\n")[-1])
        if not result["correct"] or out.returncode:
            sys.exit("seed %s: run failed (exit %d)" % (seed, out.returncode))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))

    print("%-40s %14s %10s %10s" % ("metric", "median", "iqr/med", "bound/3"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-40s %14.6g %10.4f %10s" % (
            name, med, spread, "%.4f" % (bound / 3) if bound else "-"))


if __name__ == "__main__":
    main()
