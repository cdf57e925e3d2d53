#!/usr/bin/env python3
"""Self-tests of the daemon load benchmark.

    python3 perfbench/test_bench.py

Run from the checkout root.  Checks, for every workload:

- a short untraced run is correct and prints exactly BENCHMARK.json's
  end-to-end metrics, each with its unit;
- a traced run is correct and prints exactly the per-layer metrics;
- two traced runs with the same seed report identical deterministic
  counts (do.*, q.*, bignat.*, daemon cache hits, wire bytes,
  graph6.canonical_calls, ...), and a third with another seed differs;
- the designed ratios hold: no cache hit on do-cold, every relabeled
  resend a byte-memo miss on hit-mix and canon-storm;
- the replay times cache_key on a cold bytes -> canonical memo: on
  do-cold, where nearly every solve is new bytes, its median is at least
  that of Graph6.canonical alone;

and that the benchmark refuses to run, without a result line, in a
directory holding only BENCHMARK.json and perfbench/.  Exits nonzero on
the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(workload, seed, trace, seconds=2, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def result_of(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{what}: exit {proc.returncode}\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{what}: incorrect run\n{proc.stdout[-3000:]}")
    counts = [l for l in lines if l.startswith("# counts ")]
    return result, (json.loads(counts[-1][len("# counts "):]) if counts else None)


def fail(msg):
    print("FAIL " + msg)
    sys.exit(1)


def check_metrics(result, specs, what):
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in specs}:
        fail(f"{what}: metrics {sorted(metrics)}")
    for m in specs:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{what}: {m['name']} reads {got}")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for w in (w["name"] for w in bench["workloads"]):
        result, _ = result_of(run(w, 5, 0), f"{w} untraced")
        check_metrics(result, bench["end_to_end"], f"{w} untraced")
        first, counts = result_of(run(w, 7, 1), f"{w} traced")
        check_metrics(first, bench["per_layer"], f"{w} traced")
        _, again = result_of(run(w, 7, 1), f"{w} traced again")
        if counts is None or counts != again:
            fail(f"{w}: deterministic counts differ between two runs of seed 7\n"
                 f"{counts}\n{again}")
        _, other = result_of(run(w, 8, 1), f"{w} traced, seed 8")
        if other == counts:
            fail(f"{w}: seeds 7 and 8 gave identical counts")
        if w == "do-cold":
            if counts["cache_hits"] != 0:
                fail(f"do-cold: {counts['cache_hits']} cache hits")
            layers = first["metrics"]
            ck = layers["service.cache_key_us_p50"]["value"]
            canon = layers["graph6.canonical_us_p50"]["value"]
            if ck < canon:
                fail(f"do-cold: cache_key p50 {ck} us below canonical p50 {canon} us: "
                     "the replay met a warm memo")
        if w in ("hit-mix", "canon-storm") and (
                counts["relabel_memo_misses"] != counts["relabels"] or counts["relabels"] == 0):
            fail(f"{w}: {counts['relabels']} relabeled resends, "
                 f"{counts['relabel_memo_misses']} byte-memo misses")
        print(f"ok {w}: {counts}")
    # A directory holding only the benchmark cannot build the program.
    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("hit-mix", 1, 0, cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last.startswith("{"):
        fail(f"bare directory: exit {proc.returncode}, last line {last!r}")
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
