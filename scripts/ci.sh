#!/usr/bin/env bash
# CI gate. Stages, in order:
#   1. no getenv in src/, then the tier-1 suite on the default build, with
#      warnings as errors;
#   2. the golden output manifest (scripts/golden.py check);
#   3. the shard quick gate (the shard label, without the chaos campaign);
#   4. smoke runs: kv_cluster --shards 4, micro_checkpoint, micro_health,
#      the GIOP round trip of micro_substrate, macro_events, macro_shard and
#      macro_campaign;
#   5. the perfbench/ build and a 1-s run of each of its workloads, untraced
#      and traced, which must report "correct": true (for fleet_sparse: every
#      client finished and the replicas of each of the 32 delta-chained shards
#      agree on their state digest; the traced run adds the tracing checks)
#      and print the seed-1 digests pinned in goldens/perfbench_digests.json
#      (simulated results unchanged); the traced run must also print the
#      seed-1 work counts pinned in goldens/perfbench_counts.json (events,
#      packets, wire bytes, deliveries, executions, checkpoint rounds and
#      bytes, spans per request);
#   6. the benchmark regression gates: Release re-measurement of every gate
#      in scripts/bench_gates.json against the recorded BENCH_*.json files;
#   7. the trace determinism gate and the health-event determinism gate (two
#      same-seed runs must export byte-identical recordings / HealthEvent
#      streams);
#   8. the tier-1 suite under ASan/UBSan (VDEP_SANITIZE=ON) and under TSan
#      (VDEP_SANITIZE=thread), skipped with --skip-sanitize;
#   9. the long chaos campaign (the chaos label), skipped with --skip-chaos.
#
# Usage: scripts/ci.sh [--skip-sanitize] [--skip-chaos]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc)"
skip_sanitize=0
skip_chaos=0
for arg in "$@"; do
  case "${arg}" in
    --skip-sanitize) skip_sanitize=1 ;;
    --skip-chaos) skip_chaos=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

echo "== tier-1 (default build) =="
# Settings are options and config fields, never environment variables: the
# library reads none, so a run depends only on its arguments and seed.
if grep -rn getenv "${repo_root}/src/"; then
  echo "src/ reads an environment variable (getenv above)" >&2
  exit 1
fi
# Warnings are errors on the default build and the perfbench build; the
# sanitizer and benchmark trees below keep the toolchain's default.
cmake -B "${repo_root}/build" -S "${repo_root}" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "${repo_root}/build" -j"${jobs}"
ctest --test-dir "${repo_root}/build" -L tier1 --output-on-failure -j"${jobs}"

echo "== golden outputs (goldens/manifest.json) =="
# Every example and paper-bench output must hash as the manifest records
# (about 30 s on 4 CPUs, so it is not a tier1 test). Re-baseline only with
# `scripts/golden.py update` and a CHANGES.md entry.
python3 "${repo_root}/scripts/golden.py" check --build-dir "${repo_root}/build"

echo "== shard quick gate =="
# The sharded scale-out layer has its own label; -LE chaos keeps the long
# shard campaign out of the quick gate (scripts/ci.sh runs it below).
ctest --test-dir "${repo_root}/build" -L shard -LE chaos --output-on-failure -j"${jobs}"

echo "== smoke runs =="
# Stage 1 built every example and benchmark (all are in ALL). VDEP_ASSERT is
# on in every build type, so the GIOP round trip also runs the encode-side
# io.check asserts of the GIOP field lists on every iteration. The
# whole-scenario events/sec, sharded-fleet and campaign benchmarks run small
# configurations here; their recorded baselines are measured in Release below.
smoke_runs=(
  "examples/kv_cluster --shards 4"
  "bench/micro_checkpoint --benchmark_min_time=0.001"
  "bench/micro_health --benchmark_min_time=0.001"
  "bench/micro_substrate --benchmark_filter=BM_GiopRequestRoundTrip --benchmark_min_time=0.001"
  "bench/macro_events --benchmark_filter=BM_MacroKernelChurn --benchmark_min_time=0.01"
  "bench/macro_shard --benchmark_filter=BM_MacroShardFleet/8/1000 --benchmark_min_time=0.01"
  "bench/macro_campaign --benchmark_filter=BM_CampaignTrials/8 --benchmark_min_time=0.01"
)
for smoke in "${smoke_runs[@]}"; do
  read -r -a smoke_argv <<< "${smoke}"
  "${repo_root}/build/${smoke_argv[0]}" "${smoke_argv[@]:1}" > /dev/null
  echo "${smoke} runs clean"
done

echo "== repository benchmark compiles and runs correct =="
# perfbench/ drives the harness through its public API; building it here
# makes an API change fail CI instead of the benchmark run. Each workload
# then runs for 1 s; its last output line is a JSON result whose "correct"
# field carries the workload's own checks, and its "digest" lines hash the
# simulated results, which must match goldens/perfbench_digests.json: a
# speed-up that moves a simulated result fails here. The tree builds at -O3
# (perfbench's Release), whose extra analysis catches what the default
# build's warnings do not, so warnings are errors here too.
cmake -S "${repo_root}/perfbench" -B "${repo_root}/build-perfbench" \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "${repo_root}/build-perfbench" -j"${jobs}" --target perfbench
# --trace 1 adds the checks that only a traced run makes: tracing does not
# change the run, no span is dropped, at most 1% of requests lack a complete
# blocking path, the group_active Fig. 3 cross-check, and chaos_fleet's
# parallel campaign equals the serial traced pass. It also prints the work
# counts, which must equal goldens/perfbench_counts.json exactly: a wall-time
# change moves none of them, and any moved count fails the run.
for trace in 0 1; do
  for workload in fleet_sparse group_active chaos_fleet; do
    "${repo_root}/build-perfbench/perfbench" --workload "${workload}" --seed 1 \
      --seconds 1 --trace "${trace}" | python3 -c '
import json, sys
workload, trace, golden_path, counts_path = sys.argv[1:5]
run = f"perfbench {workload} --trace {trace}"
lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1])
if result["correct"] is not True:
    sys.exit(f"{run}: \"correct\" is not true")
printed = {f[1]: f[2] for f in map(str.split, lines) if len(f) == 3 and f[0] == "digest"}
with open(golden_path) as f:
    pinned = {k: v for k, v in json.load(f)["digests"].items()
              if k.startswith(workload + ".")}
if printed != pinned:
    sys.exit(f"{run}: digests {printed} != pinned {pinned}")
if trace == "1":
    with open(counts_path) as f:
        pinned = {k.removeprefix(workload + "."): v for k, v in json.load(f)["counts"].items()
                  if k.startswith(workload + ".")}
    moved = {k: (v, result["metrics"][k]["value"]) for k, v in pinned.items()
             if result["metrics"][k]["value"] != v}
    if moved:
        sys.exit(f"{run}: work counts moved from goldens/perfbench_counts.json "
                 f"(name: (pinned, printed)): {moved}")' \
      "${workload}" "${trace}" "${repo_root}/goldens/perfbench_digests.json" \
      "${repo_root}/goldens/perfbench_counts.json"
  done
done
echo "perfbench builds clean, every workload reports correct traced and untraced, digests and work counts match"

# Scratch directories of the benchmark gate and the determinism gates below,
# removed however the script exits, a failed gate included.
bench_dir="$(mktemp -d)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "${bench_dir}" "${trace_dir}"' EXIT

echo "== benchmark regression gates (scripts/bench_gates.json) =="
# Re-measures every gated binary in Release and compares each recorded
# BENCH_*.json baseline against the fresh numbers, with the per-file metric
# allowlists and allowances in scripts/bench_gates.json. A gate whose
# baseline file is absent fails.
gate_file="${repo_root}/scripts/bench_gates.json"
cmake -B "${repo_root}/build-bench" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
# Fresh measurements land at the gate's "current" name (distinct from the
# baseline name when several gated binaries share one recorded baseline).
# --list-gates prints "-" for an empty filter: `read` with a tab IFS would
# otherwise collapse the empty field and shift the kind into it.
while IFS=$'\t' read -r baseline current binary filter kind; do
  cmake --build "${repo_root}/build-bench" -j"${jobs}" \
    --target "$(basename "${binary}")"
  if [[ "${kind}" == "chaos" ]]; then
    "${repo_root}/build-bench/${binary}" trials=200 seed=1 \
      out="${bench_dir}/${current}" > /dev/null
  else
    bench_args=(--benchmark_format=json
                --benchmark_out="${bench_dir}/${current}"
                --benchmark_out_format=json)
    [[ "${filter}" != "-" ]] && bench_args+=("--benchmark_filter=${filter}")
    "${repo_root}/build-bench/${binary}" "${bench_args[@]}" > /dev/null
  fi
done < <(python3 "${repo_root}/scripts/check_bench_regression.py" \
           --gate-file "${gate_file}" --list-gates)
python3 "${repo_root}/scripts/check_bench_regression.py" \
  --gate-file "${gate_file}" \
  --baseline-dir "${repo_root}" --current-dir "${bench_dir}"

echo "== trace determinism gate =="
"${repo_root}/build/examples/trace_explorer" seed=42 \
  out="${trace_dir}/run1.json" txt="${trace_dir}/run1.txt" > /dev/null
"${repo_root}/build/examples/trace_explorer" seed=42 \
  out="${trace_dir}/run2.json" txt="${trace_dir}/run2.txt" > /dev/null
diff "${trace_dir}/run1.json" "${trace_dir}/run2.json"
diff "${trace_dir}/run1.txt" "${trace_dir}/run2.txt"
# The sharded cluster builds on the same fabric; its export must replay too.
"${repo_root}/build/examples/trace_explorer" seed=42 shards=4 \
  out="${trace_dir}/shards1.json" > "${trace_dir}/shards1.out"
"${repo_root}/build/examples/trace_explorer" seed=42 shards=4 \
  out="${trace_dir}/shards2.json" > "${trace_dir}/shards2.out"
diff "${trace_dir}/shards1.json" "${trace_dir}/shards2.json"
diff <(grep -v wrote "${trace_dir}/shards1.out") <(grep -v wrote "${trace_dir}/shards2.out")
echo "trace exports are byte-identical across same-seed runs"

echo "== health-event determinism gate =="
# One seeded chaos trial with the live health plane, run twice: the rendered
# HealthEvent stream (suspect/clear, SLO breach/recover — with sequence ids
# and sim-time stamps) must replay byte-identically from the seed.
"${repo_root}/build/examples/health_dashboard" chaos=1 seed=42 \
  events="${trace_dir}/health1.txt" > /dev/null
"${repo_root}/build/examples/health_dashboard" chaos=1 seed=42 \
  events="${trace_dir}/health2.txt" > /dev/null
diff "${trace_dir}/health1.txt" "${trace_dir}/health2.txt"
echo "health-event streams are byte-identical across same-seed runs"

if [[ "${skip_sanitize}" -eq 0 ]]; then
  echo "== tier-1 (ASan + UBSan) =="
  cmake -B "${repo_root}/build-asan" -S "${repo_root}" -DVDEP_SANITIZE=ON
  cmake --build "${repo_root}/build-asan" -j"${jobs}"
  ctest --test-dir "${repo_root}/build-asan" -L tier1 --output-on-failure -j"${jobs}"

  echo "== tier-1 (TSan) =="
  # The trial fleet (chaos/fleet.hpp) is real multi-threaded code; the
  # whole tier-1 suite (which includes the run_ordered tests, the parallel
  # shrinker and the serial-vs-parallel campaign determinism tests) must be
  # data-race-free under ThreadSanitizer.
  cmake -B "${repo_root}/build-tsan" -S "${repo_root}" -DVDEP_SANITIZE=thread
  cmake --build "${repo_root}/build-tsan" -j"${jobs}"
  ctest --test-dir "${repo_root}/build-tsan" -L tier1 --output-on-failure -j"${jobs}"
fi

if [[ "${skip_chaos}" -eq 0 ]]; then
  echo "== chaos campaign (200 seeded trials) =="
  ctest --test-dir "${repo_root}/build" -L chaos --output-on-failure
fi

echo "CI green."
