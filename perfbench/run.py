#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the perfbench package (perfbench/
CMakeLists.txt, which compiles ../src) into .bench_build/perfbench, then
runs the workload in a child process of its own, so that peak RSS and
set-up time belong to that workload alone. The host pool is pinned to
nproc threads. Prints the host fingerprint and the child's report, then
the result object as the last line. The metric names and units the child
emits must match BENCHMARK.json exactly. Exits non-zero when the build
fails, a metric is missing or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD_TIMEOUT_S = 170


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then let the build tool decide what is stale."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(nproc())])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def host_fingerprint(workers):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            mem_kb = int(f.readline().split()[1])
    except (OSError, IndexError, ValueError):
        pass
    host = {"cpu": model or platform.processor(), "nproc": nproc(),
            "pool_workers": workers, "mem_gb": round(mem_kb / 2**20, 1),
            "kernel": platform.release()}
    host["id"] = hashlib.sha1(json.dumps(host, sort_keys=True).encode()).hexdigest()[:12]
    return host


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    binary = build()
    # nproc threads in all: the pool's workers plus the calling thread.
    workers = max(1, nproc() - 1)
    env = dict(os.environ, HPCOS_PARALLEL_WORKERS=str(workers))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json")]
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: workload did not finish in %d s" % CHILD_TIMEOUT_S)
    lines = child.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(child.stdout)
        sys.exit("perfbench: no result (exit code %d)" % child.returncode)

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        sys.exit("perfbench: metrics differ from BENCHMARK.json: missing %s, "
                 "unexpected %s, wrong unit %s" % (missing, extra, wrong))

    print("\n".join(lines[:-1]))
    print("host: " + json.dumps(host_fingerprint(workers), sort_keys=True))
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
