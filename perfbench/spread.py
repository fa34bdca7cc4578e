#!/usr/bin/env python3
"""Measure how steady the benchmark is across seeds.

    python3 perfbench/spread.py --workload day --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed and reports, for every metric of the
run, the median, the quartile distance (statistics.quantiles, n=4) as a
share of the median, and the metric's bound from BENCHMARK.json. A metric
is steady when its spread stays under a third of its bound. Raw results go
to .bench_build/perfbench/spread-<workload>-trace<t>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_from(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("seed %d failed (exit %d):\n%s%s" % (
            seed, proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in seeds_from(args.seeds):
        result = run(args.workload, seed, args.trace, args.seconds)
        results.append({"seed": seed, **result})
        print("seed %-4d correct=%s %s" % (seed, result["correct"], " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
            if k in bounds or args.trace)), flush=True)

    out = os.path.join(ROOT, ".bench_build", "perfbench",
                       "spread-%s-trace%d.json" % (args.workload, args.trace))
    with open(out, "w") as f:
        json.dump(results, f, indent=1)

    print("\n%-34s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of the bound"
            steady = False
        print("%-34s %14.6g %8.4f %8s%s" % (
            name, med, spread, "" if bound is None else bound, flag))
    print("\nall correct: %s; steady: %s" % (
        all(r["correct"] for r in results), steady))
    return 0 if steady and all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
