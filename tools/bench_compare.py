#!/usr/bin/env python3
"""Compare two dosn-bench/1 JSON documents (or directories of them).

Usage:
  bench_compare.py BASELINE CURRENT [--max-regress PCT]

BASELINE and CURRENT are either two BENCH_<name>.json files produced by a
bench binary's --json flag, or two directories of such files (the comparison
pairs files by name; every baseline file must have a counterpart).

Default mode is a *structural* compare, safe across machines and compiler
versions:
  - both documents carry the known schema version,
  - every baseline scenario still exists in the current run,
  - every scenario has wall-clock stats (reps >= 1, median >= 0),
  - every baseline counter key is still recorded (values may drift with
    workload tuning; disappearing keys usually mean a port lost a metric).

With --max-regress PCT the script additionally gates wall-clock medians of
scenarios tagged "hot": current median must not exceed baseline median by
more than PCT percent. Only meaningful when both documents were produced on
the same machine at the same --reps; CI uses the structural mode against
bench/baselines/ and developers use --max-regress locally before/after a
change.

Scenarios that record a per-phase "timeline" (macro-workload benches such as
bench_dayinlife) are diffed phase by phase, not just as totals: the baseline's
phase-name sequence must be reproduced in order, every baseline phase counter
key must still be recorded, and under --exact-counters the per-phase counter
values must match exactly — so a regression (or determinism break) is
localized to the workload phase that caused it.

With --exact-counters every baseline counter must exist in the current run
WITH THE SAME VALUE. Counters produced by the deterministic simulator are a
pure function of the workload and the seed — independent of machine, load,
and compiler — so at a pinned seed this is a byte-identity check on the
simulation: any drift means scheduling order, RNG consumption, or delivery
semantics changed. Six `bench_byte_identity_*` ctest gates (faults,
availability, dayinlife, microblog, acl_membership, acl_groupcreate) run
those benches at --smoke --seed 42 under this flag against the committed
baselines.

Exit codes: 0 ok, 1 comparison failed, 2 usage or I/O error.
Stdlib only; do not add dependencies.
"""

import argparse
import json
import os
import sys

SCHEMA = "dosn-bench/1"


def fail(msg):
    print(f"bench_compare: FAIL: {msg}")
    return False


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level is not an object")
    return doc


def wall_ok(name, scenario):
    ok = True
    wall = scenario.get("wall_ms")
    if not isinstance(wall, dict):
        return fail(f"{name}: missing wall_ms stats")
    for key in ("min", "median", "mean", "p95", "max"):
        value = wall.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            ok = fail(f"{name}: wall_ms.{key} is not a non-negative number")
    reps = scenario.get("reps")
    if not isinstance(reps, int) or reps < 1:
        ok = fail(f"{name}: reps must be >= 1")
    return ok


def counters_ok(label, base_counters, cur_counters, exact_counters):
    ok = True
    for key in base_counters:
        if key not in cur_counters:
            ok = fail(f"{label}: counter {key!r} disappeared")
        elif exact_counters and cur_counters[key] != base_counters[key]:
            ok = fail(
                f"{label}: counter {key!r} drifted: baseline "
                f"{base_counters[key]} vs current {cur_counters[key]} "
                f"(deterministic-sim byte identity violated)"
            )
    return ok


def timeline_ok(label, base_s, cur_s, exact_counters):
    base_tl = base_s.get("timeline")
    if not isinstance(base_tl, list):
        return True  # baseline has no timeline: nothing to hold cur to
    ok = True
    cur_tl = cur_s.get("timeline")
    if not isinstance(cur_tl, list):
        return fail(f"{label}: per-phase timeline disappeared")
    base_names = [p.get("name") for p in base_tl]
    cur_names = [p.get("name") for p in cur_tl]
    if base_names != cur_names:
        return fail(
            f"{label}: timeline phases changed: baseline {base_names} vs "
            f"current {cur_names} (phase sequence is part of the contract)"
        )
    for base_p, cur_p in zip(base_tl, cur_tl):
        phase_label = f"{label}[{base_p.get('name')}]"
        ok &= counters_ok(phase_label, base_p.get("counters") or {},
                          cur_p.get("counters") or {}, exact_counters)
    return ok


def compare_docs(base, cur, base_path, cur_path, max_regress,
                 exact_counters=False):
    ok = True
    for path, doc in ((base_path, base), (cur_path, cur)):
        if doc.get("schema") != SCHEMA:
            ok = fail(f"{path}: schema {doc.get('schema')!r}, want {SCHEMA!r}")
    if base.get("bench") != cur.get("bench"):
        ok = fail(
            f"bench name mismatch: baseline {base.get('bench')!r} vs "
            f"current {cur.get('bench')!r}"
        )
    if not ok:
        return False

    bench = base.get("bench", "?")
    base_scenarios = {s.get("name"): s for s in base.get("scenarios", [])}
    cur_scenarios = {s.get("name"): s for s in cur.get("scenarios", [])}

    for name, base_s in base_scenarios.items():
        label = f"{bench}/{name}"
        cur_s = cur_scenarios.get(name)
        if cur_s is None:
            ok = fail(f"{label}: scenario present in baseline but not in "
                      f"current run")
            continue
        ok &= wall_ok(label, cur_s)
        ok &= counters_ok(label, base_s.get("counters") or {},
                          cur_s.get("counters") or {}, exact_counters)
        ok &= timeline_ok(label, base_s, cur_s, exact_counters)
        if max_regress is not None and base_s.get("hot") and cur_s.get("hot"):
            base_median = (base_s.get("wall_ms") or {}).get("median", 0)
            cur_median = (cur_s.get("wall_ms") or {}).get("median", 0)
            if base_median > 0:
                limit = base_median * (1 + max_regress / 100.0)
                if cur_median > limit:
                    ok = fail(
                        f"{label}: hot median regressed "
                        f"{base_median:.3f} ms -> {cur_median:.3f} ms "
                        f"(limit {limit:.3f} ms at --max-regress "
                        f"{max_regress:g})"
                    )

    added = sorted(set(cur_scenarios) - set(base_scenarios))
    if added:
        print(f"bench_compare: note: {bench}: new scenarios not in baseline: "
              f"{', '.join(added)}")
    if ok:
        gate = (f", hot medians within {max_regress:g}%"
                if max_regress is not None else "")
        exact = ", counters byte-identical" if exact_counters else ""
        print(f"bench_compare: ok: {bench}: "
              f"{len(base_scenarios)} baseline scenarios present{gate}{exact}")
    return ok


def pair_files(base_dir, cur_dir):
    names = sorted(
        n for n in os.listdir(base_dir)
        if n.startswith("BENCH_") and n.endswith(".json")
    )
    if not names:
        raise ValueError(f"{base_dir}: no BENCH_*.json files")
    pairs = []
    for n in names:
        cur = os.path.join(cur_dir, n)
        if not os.path.exists(cur):
            raise ValueError(f"{cur}: baseline {n} has no current counterpart")
        pairs.append((os.path.join(base_dir, n), cur))
    return pairs


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_compare.py",
        description="Compare dosn-bench/1 JSON documents.",
    )
    parser.add_argument("baseline", help="baseline file or directory")
    parser.add_argument("current", help="current file or directory")
    parser.add_argument(
        "--max-regress",
        type=float,
        metavar="PCT",
        help="fail if a hot scenario's wall median regresses more than PCT%% "
             "(same-machine comparisons only)",
    )
    parser.add_argument(
        "--exact-counters",
        action="store_true",
        help="require every baseline counter to match the current value "
             "exactly (byte identity of deterministic sim counters at a "
             "pinned seed)",
    )
    args = parser.parse_args(argv)

    try:
        if os.path.isdir(args.baseline) != os.path.isdir(args.current):
            raise ValueError("baseline and current must both be files or "
                             "both be directories")
        if os.path.isdir(args.baseline):
            pairs = pair_files(args.baseline, args.current)
        else:
            pairs = [(args.baseline, args.current)]
        ok = True
        for base_path, cur_path in pairs:
            ok &= compare_docs(load(base_path), load(cur_path),
                               base_path, cur_path, args.max_regress,
                               args.exact_counters)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bench_compare: error: {err}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
