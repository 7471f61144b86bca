#!/usr/bin/env python3
"""Golden manifest of the example and paper-bench outputs.

Every command below is seeded, so its stdout and the files it writes are the
same on every run. goldens/manifest.json records an FNV-1a 64 hash of each
command's stdout and of every file it writes. Lines that start with
`wrote <path>` are removed before hashing, because they name where a file
went, not what it holds.

    scripts/golden.py check  [--build-dir build]
    scripts/golden.py update [--build-dir build]

`check` runs every command and names each one whose hash moved (exit 1).
`update` rewrites the manifest from a fresh run; re-baseline only on
purpose, and list every moved hash in CHANGES.md. Each command runs in its
own temporary directory, so written files land there under relative names.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(REPO, "goldens", "manifest.json")

# name -> binary (relative to the build dir) and its arguments.
COMMANDS = {
    "trace_explorer": ["examples/trace_explorer", "seed=42", "out=trace.json", "txt=trace.txt"],
    "trace_explorer_metrics": ["examples/trace_explorer", "seed=42", "metrics=1",
                               "out=trace.json", "metrics_out=metrics.json"],
    "trace_explorer_shards": ["examples/trace_explorer", "seed=42", "shards=4",
                              "out=trace.json"],
    "health_dashboard": ["examples/health_dashboard", "seed=7", "events=events.txt"],
    "health_dashboard_chaos": ["examples/health_dashboard", "chaos=1", "seed=42",
                               "events=events.txt"],
    "chaos_runner": ["examples/chaos_runner", "trials=200", "seed=1", "out=campaign.json"],
    "kv_cluster": ["examples/kv_cluster"],
    "kv_cluster_shards": ["examples/kv_cluster", "--shards", "4"],
    "quickstart": ["examples/quickstart"],
    "mission_modes": ["examples/mission_modes"],
    "sensor_network": ["examples/sensor_network"],
    "capacity_planner": ["examples/capacity_planner"],
    "fig3_breakdown": ["bench/fig3_breakdown"],
    "fig4_overhead": ["bench/fig4_overhead"],
    "fig6_adaptive": ["bench/fig6_adaptive"],
    "fig7_tradeoffs": ["bench/fig7_tradeoffs"],
    "fig8_scalability_knob": ["bench/fig8_scalability_knob"],
    "fig9_design_space": ["bench/fig9_design_space"],
    "ablation_checkpoint": ["bench/ablation_checkpoint"],
    "ablation_styles": ["bench/ablation_styles"],
    "ablation_switch_cost": ["bench/ablation_switch_cost"],
}

WROTE_LINE = re.compile(rb"^\s*wrote \S+.*$\n?", re.MULTILINE)


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def run_one(build_dir, name):
    binary, *args = COMMANDS[name]
    with tempfile.TemporaryDirectory(prefix=f"golden-{name}-") as tmp:
        proc = subprocess.run([os.path.join(build_dir, binary), *args], cwd=tmp,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}:\n"
                               f"{proc.stderr.decode(errors='replace')}")
        hashes = {"stdout": fnv1a(WROTE_LINE.sub(b"", proc.stdout))}
        for file in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, file), "rb") as f:
                hashes[file] = fnv1a(f.read())
    return hashes


def run_all(build_dir):
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        futures = {name: pool.submit(run_one, build_dir, name) for name in COMMANDS}
        return {name: futures[name].result() for name in COMMANDS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["check", "update"])
    parser.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    opts = parser.parse_args()

    start = time.monotonic()
    current = run_all(os.path.abspath(opts.build_dir))
    elapsed = time.monotonic() - start

    if opts.mode == "update":
        os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
        manifest = {name: {"command": COMMANDS[name], "hashes": current[name]}
                    for name in COMMANDS}
        with open(MANIFEST, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"golden: wrote {len(manifest)} entries to {MANIFEST} in {elapsed:.1f} s")
        return 0

    with open(MANIFEST) as f:
        manifest = json.load(f)
    moved = []
    for name in sorted(set(manifest) | set(COMMANDS)):
        want = manifest.get(name, {})
        if want.get("command") != COMMANDS.get(name) or want.get("hashes") != current.get(name):
            moved.append(f"  {name}: manifest {want.get('hashes')} now {current.get(name)}")
    if moved:
        print(f"golden: {len(moved)} of {len(COMMANDS)} outputs moved:")
        print("\n".join(moved))
        return 1
    print(f"golden: all {len(COMMANDS)} outputs match the manifest ({elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
