#!/usr/bin/env python3
"""Steadiness check and baseline for the daemon load benchmark.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 1-10] [--sets 2] [--out FILE]

Runs perfbench/run.py once per seed on each workload with BENCHMARK.json's
run_seconds and no tracing, and does that for --sets sets of seeds: the
first set uses --seeds, each later one the next seeds of the same count.
A set covers every workload before the next set starts, so two sets of
one workload are taken minutes apart.  Prints, per set, workload and
end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the inter-quartile spread as a
share of the median next to the metric's bound, then how far each later
set's median moved from the first set's.

Exits 0 only if the figures pass what the bounds demand: every spread
within its bound (setup_s excepted), and no later median worse than the
first set's by more than the bound.  A spread at or above a third of its
bound is flagged WIDE but does not fail.  With --out, also makes one
traced run per workload (the first seed) and writes all figures as JSON;
that is how perfbench/baseline.json was made.  Run from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{proc.stdout[-2000:]}")
    return result, elapsed


def measure_set(workload, seeds, seconds, specs):
    """One workload's figures over [seeds]: per metric, median, quartiles,
    spread and every value.  Returns them and whether every spread is
    within its bound."""
    values = {m["name"]: [] for m in specs}
    walls = []
    for seed in seeds:
        result, elapsed = run_once(workload, seed, seconds)
        walls.append(elapsed)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    rows = {}
    within = True
    print(f"{workload} seeds {seeds[0]}-{seeds[-1]}: {len(walls)} runs, "
          f"wall {min(walls):.1f}-{max(walls):.1f} s")
    for m in specs:
        name, bound = m["name"], m["bound"]
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
        if name != "setup_s" and spread > bound:
            within = False
        print(f"  {name:24s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
              f"  spread {spread:6.3f}  bound {bound:.2f}  {flag}")
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "values": vals}
    return rows, within


def worsening(spec, first, later):
    """How much worse [later] is than [first], as a share of [first]
    (negative when it is better)."""
    change = (later - first) / first
    return change if spec["better"] == "lower" else -change


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    specs = bench["end_to_end"]
    workloads = args.workloads.split(",")
    first_seeds = seeds_of(args.seeds)
    passed = True
    sets = []
    for s in range(args.sets):
        seeds = [x + s * len(first_seeds) for x in first_seeds]
        figures = {}
        for workload in workloads:
            figures[workload], within = measure_set(workload, seeds, seconds, specs)
            passed = passed and within
        sets.append({"seeds": f"{seeds[0]}-{seeds[-1]}", "workloads": figures})
    moved = {}
    for s in range(1, len(sets)):
        print(f"set {s + 1} against set 1: median change, worse side positive")
        for workload in workloads:
            for m in specs:
                name = m["name"]
                w = worsening(m, sets[0]["workloads"][workload][name]["median"],
                              sets[s]["workloads"][workload][name]["median"])
                flag = "ok" if w <= m["bound"] else "OVER"
                if w > m["bound"]:
                    passed = False
                moved.setdefault(f"set{s + 1}", {}).setdefault(workload, {})[name] = w
                print(f"  {workload:12s} {name:24s} {w:+7.3f}  bound {m['bound']:.2f}  {flag}")
    if args.out:
        summary = {"run_seconds": seconds, "sets": sets,
                   "worsening_vs_set1": moved, "per_layer": {}}
        for workload in workloads:
            traced, _ = run_once(workload, first_seeds[0], seconds, trace=1)
            summary["per_layer"][workload] = {
                name: m["value"] for name, m in traced["metrics"].items()}
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
