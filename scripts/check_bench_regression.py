#!/usr/bin/env python3
"""Fails when recorded benchmark baselines regress beyond their allowance.

One gate per recorded BENCH_*.json baseline, each with its own metric
allowlist and thresholds (scripts/bench_gates.json):
  check_bench_regression.py --gate-file scripts/bench_gates.json \
      --baseline-dir . --current-dir /tmp/bench
  check_bench_regression.py --gate-file scripts/bench_gates.json --list-gates

A gate entry looks like:
  {"baseline": "BENCH_kernel.json",        # recorded file at the repo root
   "current": "BENCH_kernel.json",         # fresh-measurement file name in
                                           # --current-dir (optional; defaults
                                           # to the baseline name — set it when
                                           # two gated binaries share one
                                           # recorded baseline so their fresh
                                           # runs don't clobber each other)
   "binary": "bench/macro_events",         # producer (ci.sh runs it)
   "filter": "BM_MacroKernelChurn",        # --benchmark_filter, optional
   "kind": "gbench",                       # or "chaos" (flat JSON report)
   "metrics": {"events_per_sec": {"direction": "higher",
                                  "max_regression": 0.20}}}

"higher" metrics fail when current < baseline * (1 - max_regression);
"lower" metrics (times) fail when current > baseline * (1 + max_regression).
For "gbench" gates the metric is read from each benchmark entry (counters and
the built-in real_time/cpu_time); for "chaos" gates the metric name is a
dotted path into the flat report (e.g. "recovery_ms.mean"). Only benchmarks
present in both files are compared; a metric missing from both sides of a
gate is an error (the allowlist names something the benchmark no longer
emits). A gate whose baseline file is missing is an error too: a gate
without a baseline would otherwise be silently off.
"""
import argparse
import json
import os
import sys


def load_json(path):
    with open(path) as f:
        return json.load(f)


def dotted(doc, path):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def gbench_values(doc, metric):
    out = {}
    for bench in doc.get("benchmarks", []):
        if metric in bench and isinstance(bench[metric], (int, float)):
            out[bench["name"]] = float(bench[metric])
    return out


def compare(name, metric, direction, allowance, base, cur):
    """Returns (ok, line) for one metric comparison."""
    ratio = cur / base if base != 0 else float("inf")
    if direction == "lower":
        ok = cur <= base * (1.0 + allowance)
    else:
        ok = cur >= base * (1.0 - allowance)
    verdict = "OK" if ok else "REGRESSION"
    return ok, (f"{name}: {metric} {base:.4g} -> {cur:.4g} "
                f"({ratio:.2f}x baseline, {direction} is better) {verdict}")


def run_gate(gate, baseline_dir, current_dir):
    """Returns whether one gate passes."""
    name = gate["baseline"]
    base_path = os.path.join(baseline_dir, name)
    cur_path = os.path.join(current_dir, gate.get("current", name))
    if not os.path.exists(base_path):
        print(f"error: {name}: no recorded baseline at {base_path}",
              file=sys.stderr)
        return False
    if not os.path.exists(cur_path):
        print(f"error: {name}: no current measurement at {cur_path}",
              file=sys.stderr)
        return False

    base_doc = load_json(base_path)
    cur_doc = load_json(cur_path)
    kind = gate.get("kind", "gbench")
    ok = True
    for metric, spec in gate["metrics"].items():
        direction = spec.get("direction", "higher")
        allowance = float(spec.get("max_regression", 0.20))
        if kind == "chaos":
            base_v = dotted(base_doc, metric)
            cur_v = dotted(cur_doc, metric)
            if base_v is None or cur_v is None:
                print(f"error: {name}: metric {metric!r} missing "
                      f"(baseline: {base_v}, current: {cur_v})", file=sys.stderr)
                ok = False
                continue
            good, line = compare(name, metric, direction, allowance, base_v, cur_v)
            print(line)
            ok = ok and good
        else:
            base_vals = gbench_values(base_doc, metric)
            cur_vals = gbench_values(cur_doc, metric)
            common = sorted(set(base_vals) & set(cur_vals))
            if not common:
                print(f"error: {name}: no common benchmarks carry metric "
                      f"{metric!r}", file=sys.stderr)
                ok = False
                continue
            for bench in common:
                good, line = compare(f"{name}:{bench}", metric, direction,
                                     allowance, base_vals[bench], cur_vals[bench])
                print(line)
                ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gate-file", required=True, help="scripts/bench_gates.json")
    ap.add_argument("--baseline-dir", default=".")
    ap.add_argument("--current-dir")
    ap.add_argument("--list-gates", action="store_true",
                    help="print baseline<TAB>current<TAB>binary<TAB>filter"
                         "<TAB>kind per gate")
    args = ap.parse_args()

    gates = load_json(args.gate_file)["gates"]
    if args.list_gates:
        for g in gates:
            print(f"{g['baseline']}\t{g.get('current', g['baseline'])}\t"
                  f"{g.get('binary', '')}\t{g.get('filter', '')}\t"
                  f"{g.get('kind', 'gbench')}")
        return 0
    if not args.current_dir:
        print("error: --current-dir is required", file=sys.stderr)
        return 2
    all_ok = True
    for gate in gates:
        all_ok = run_gate(gate, args.baseline_dir, args.current_dir) and all_ok
    if not all_ok:
        print("error: benchmark gates failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
