#!/usr/bin/env bash
# CI gate. Stages, in order:
#   1. the tier-1 suite on the default build, with warnings as errors;
#   2. the golden output manifest (scripts/golden.py check);
#   3. the shard quick gate (the shard label, without the chaos campaign);
#   4. smoke runs: kv_cluster --shards 4, micro_checkpoint, micro_health,
#      macro_events, macro_shard and macro_campaign;
#   5. the perfbench/ build (the repository benchmark must compile);
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
# Warnings are errors on the default build; the sanitizer and benchmark
# trees below keep the toolchain's default.
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

echo "== kv_cluster multi-shard smoke =="
cmake --build "${repo_root}/build" -j"${jobs}" --target kv_cluster
"${repo_root}/build/examples/kv_cluster" --shards 4 > /dev/null
echo "kv_cluster --shards 4 runs clean"

echo "== checkpoint micro-benchmark smoke run =="
cmake --build "${repo_root}/build" -j"${jobs}" --target micro_checkpoint
"${repo_root}/build/bench/micro_checkpoint" --benchmark_min_time=0.001 > /dev/null
echo "micro_checkpoint runs clean"

echo "== health micro-benchmark smoke run =="
cmake --build "${repo_root}/build" -j"${jobs}" --target micro_health
"${repo_root}/build/bench/micro_health" --benchmark_min_time=0.001 > /dev/null
echo "micro_health runs clean"

echo "== macro-benchmark smoke runs =="
# The whole-scenario events/sec benchmark and the sharded-fleet benchmark
# must run on the default build (small configurations; the recorded
# baselines are measured in Release below).
cmake --build "${repo_root}/build" -j"${jobs}" --target macro_events \
  --target macro_shard --target macro_campaign
"${repo_root}/build/bench/macro_events" \
  --benchmark_filter='BM_MacroKernelChurn' --benchmark_min_time=0.01 > /dev/null
"${repo_root}/build/bench/macro_shard" \
  --benchmark_filter='BM_MacroShardFleet/8/1000' --benchmark_min_time=0.01 > /dev/null
"${repo_root}/build/bench/macro_campaign" \
  --benchmark_filter='BM_CampaignTrials/8' --benchmark_min_time=0.01 > /dev/null
echo "macro_events, macro_shard and macro_campaign run clean"

echo "== repository benchmark compiles =="
# perfbench/ drives the harness through its public API; building it here
# makes an API change fail CI instead of the benchmark run.
cmake -S "${repo_root}/perfbench" -B "${repo_root}/build-perfbench"
cmake --build "${repo_root}/build-perfbench" -j"${jobs}" --target perfbench
echo "perfbench builds clean"

echo "== benchmark regression gates (scripts/bench_gates.json) =="
# Re-measures every gated binary in Release and compares each recorded
# BENCH_*.json baseline against the fresh numbers, with the per-file metric
# allowlists and allowances in scripts/bench_gates.json. A gate whose
# baseline file is absent fails.
gate_file="${repo_root}/scripts/bench_gates.json"
cmake -B "${repo_root}/build-bench" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
bench_dir="$(mktemp -d)"
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
rm -rf "${bench_dir}"

echo "== trace determinism gate =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "${trace_dir}"' EXIT
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
cmake --build "${repo_root}/build" -j"${jobs}" --target health_dashboard
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
