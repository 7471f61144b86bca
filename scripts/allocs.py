#!/usr/bin/env python3
"""Heap allocations per completed request of one perfbench workload.

    scripts/allocs.py --workload <fleet_sparse|group_active|chaos_fleet>
                      [--seed N] [--seconds S]

Builds the Release perfbench binary the way perfbench/run.py does (under
.bench_build/), compiles the counting shim scripts/alloc_count.c with the
system `cc`, runs the workload once at --trace 0 with the shim preloaded,
and prints the process's heap allocations divided by the requests it
completed (trials, for chaos_fleet). The count covers the whole process,
set-up included, so compare runs of the same length.
"""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIM_SOURCE = os.path.join(ROOT, "scripts", "alloc_count.c")
SHIM = os.path.join(ROOT, ".bench_build", "alloc_count.so")


def load_runner():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_shim():
    os.makedirs(os.path.dirname(SHIM), exist_ok=True)
    cmd = ["cc", "-O2", "-shared", "-fPIC", "-o", SHIM, SHIM_SOURCE]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    runner = load_runner()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=runner.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    if not runner.build() or not build_shim():
        print("allocs: build failed", file=sys.stderr)
        return 1

    cmd = [runner.BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    env = dict(os.environ, LD_PRELOAD=SHIM)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=runner.run_timeout_s(args.seconds))
    counts = re.findall(r"^alloc_count (\d+)$", proc.stderr, re.MULTILINE)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not counts or not lines:
        sys.stderr.write(proc.stderr)
        print(f"allocs: run failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    completed = result["attempted"] - result["failed"]
    if completed <= 0:
        print("allocs: the run completed no request", file=sys.stderr)
        return 1
    allocations = int(counts[-1])
    print(f"{args.workload}: {allocations} heap allocations, {completed} completed, "
          f"{allocations / completed:.1f} per request")
    return 0


if __name__ == "__main__":
    sys.exit(main())
