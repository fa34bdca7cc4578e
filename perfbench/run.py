#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload day --seed 42 --seconds 10 --trace 0

Configures and builds perfbench (a Release build of the DOSN module
libraries plus the replay in perfbench/src) under .bench_build/perfbench in
the checkout, then runs it with the given arguments. The benchmark's last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; build output goes to stderr. Each run also writes a JSON
artifact (per-day tables, per-phase timelines with the failure taxonomy,
all counts) under .bench_build/perfbench/artifacts.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def artifact_path(args):
    def arg(flag, default):
        return args[args.index(flag) + 1] if flag in args[:-1] else default
    name = "%s-seed%s-trace%s.json" % (
        arg("--workload", "none"), arg("--seed", "42"), arg("--trace", "0"))
    return os.path.join(BUILD, "artifacts", os.path.basename(name))


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    artifact = artifact_path(args)
    os.makedirs(os.path.dirname(artifact), exist_ok=True)
    try:
        return subprocess.run([BINARY] + args + ["--artifact", artifact],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
