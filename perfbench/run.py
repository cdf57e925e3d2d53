#!/usr/bin/env python3
"""Daemon load benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/loadbench.exe
with dune into .bench_build (build output goes to stderr), then runs it;
the benchmark's report and its final JSON line go to stdout.  Exits
nonzero, without a result line, when the build fails or the run does not
finish in time.  perfbench/METRICS.md describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "loadbench.exe")
RUN_TIMEOUT_S = 170
# A first build in a fresh checkout takes minutes; a build that waits on
# another dune holding the same build directory would wait forever.
BUILD_TIMEOUT_S = 840


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/loadbench.exe"]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["do-cold", "hit-mix", "canon-storm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project at the checkout root; nothing to build",
              file=sys.stderr)
        return 2
    if build() != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    # Write the build's output back to disk now, not while set-up is timed.
    os.sync()
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
