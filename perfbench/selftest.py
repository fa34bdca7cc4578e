#!/usr/bin/env python3
"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py [--workload day]

Runs the workload with its own day count, as the benchmark does, but with
no replays beyond the first of each day (--seconds 1), and checks:
  - the metric names and units each mode prints match BENCHMARK.json;
  - two runs at a fixed seed give identical sim-clock metrics and counts;
  - a traced run's counts, printed E19 tables and per-phase timelines
    equal the untraced run's on the days it replays, it attributes >= 95%
    of the replay to named buckets, and its dominant layer is the one
    BENCHMARK.json records;
  - seed 42 (which also pins E19's schedule hash and counters on `day`)
    and another seed both pass the output checks;
  - in a directory holding only BENCHMARK.json and perfbench/, the run
    fails without printing a result.
Exits non-zero on the first failed check.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
OTHER_SEED = 7


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def result_of(workload, seed, trace):
    proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace)])
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines,
          "%s seed %d trace %d exits 0 (exit %d)\n%s" % (
              workload, seed, trace, proc.returncode, proc.stderr[-3000:]))
    result = json.loads(lines[-1])
    artifact = os.path.join(WORK, "artifacts", "%s-seed%d-trace%d.json" % (
        workload, seed, trace))
    with open(artifact) as f:
        return result, json.load(f)


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what.splitlines()[0]))
    if not ok:
        print(what)
        sys.exit(1)


DAY_KEYS = ("seed", "schedule_hash", "table", "timeline", "counts",
            "latency_samples")


def day_outputs(artifact):
    """Everything a day's replay must reproduce exactly (no wall clocks)."""
    return [{k: d[k] for k in DAY_KEYS} for d in artifact["days"]]


def deterministic(metrics):
    """Every metric whose value must repeat exactly at a fixed seed."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in ("ms", "s", "events/s", "MiB", "%")
            or k == "fail_pct"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="day")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    w = args.workload

    first, first_art = result_of(w, 42, 0)
    check(first["correct"], "%s seed 42 passes the output checks" % w)
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    check(got == want, "trace 0 prints exactly the end_to_end metrics\n"
          "got  %s\nwant %s" % (got, want))
    check(first["attempted"] >= 1 and 0 <= first["failed"] <= first["attempted"],
          "attempted and failed are consistent")

    second, second_art = result_of(w, 42, 0)
    check(deterministic(first["metrics"]) == deterministic(second["metrics"]),
          "two runs at seed 42 give identical sim-clock metrics")
    check(day_outputs(first_art) == day_outputs(second_art),
          "two runs at seed 42 give identical tables, timelines, counts "
          "and latency samples")

    traced, traced_art = result_of(w, 42, 1)
    check(traced["correct"], "the traced run passes the output checks")
    want = {m["name"]: m["unit"] for m in bench["per_layer"]}
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    check(got == want, "trace 1 prints exactly the per_layer metrics\n"
          "got  %s\nwant %s" % (got, want))
    traced_days = day_outputs(traced_art)
    check(traced_days == day_outputs(first_art)[:len(traced_days)],
          "traced and untraced runs give identical tables, timelines, "
          "counts and latency samples")
    coverage = traced["metrics"]["trace.coverage_pct"]["value"]
    check(95 <= coverage <= 100.5,
          "the trace attributes %.1f%% of the replay to named buckets" % coverage)
    whys = {x["name"]: x["why"] for x in bench["workloads"]}
    dominant = traced_art["dominant_layer"]
    check(w in whys and ("Dominant layer: " + dominant) in whys[w],
          "the dominant layer (%s) is the one BENCHMARK.json records" % dominant)

    other, _ = result_of(w, OTHER_SEED, 0)
    check(other["correct"], "seed %d passes the output checks" % OTHER_SEED)

    bare = os.path.join(WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", w, "--seed", "42", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    printed = proc.stdout.strip().splitlines()
    check(proc.returncode != 0 and not (printed and printed[-1].startswith("{")),
          "without the repository's sources the run fails with no result")
    shutil.rmtree(bare)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
