#!/usr/bin/env bash
# Builds the benchmarks in Release mode (-O2, NDEBUG) and records their
# results at the repo root: BENCH_substrate.json (substrate components),
# BENCH_obs.json (observability layer), BENCH_checkpoint.json (incremental
# checkpointing), BENCH_kernel.json (macro events/sec of the simulation
# kernel across whole scenarios), BENCH_shard.json (10k routed clients over
# a 32-shard fleet), BENCH_parallel.json (chaos trials per second on the
# trial fleet), then runs the seeded chaos campaign and records
# BENCH_chaos.json.
#
# Bench hygiene: baselines must never be recorded from a debug build. The
# bench binaries themselves refuse --benchmark_out when compiled without
# NDEBUG (see bench_main.cpp), and this script additionally verifies the
# "vdep_build_type" context stamped into every emitted JSON. (The stock
# "library_build_type" field describes the *system libbenchmark*, which
# Debian ships without NDEBUG — it reads "debug" even in a fully optimized
# build and is not the gate.)
#
# Usage: bench/run_bench.sh [extra google-benchmark args...]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-bench"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
cmake --build "${build_dir}" -j"$(nproc)" \
  --target micro_substrate --target micro_obs --target micro_health \
  --target micro_checkpoint --target macro_events --target macro_shard \
  --target macro_campaign --target chaos_runner

# Records one google-benchmark binary into BENCH_<name>.json, refusing to
# keep the result unless the binary stamped itself as a release build.
record() {
  local binary="$1" out="$2"
  shift 2
  "${binary}" \
    --benchmark_format=json \
    --benchmark_out="${out}.tmp" \
    --benchmark_out_format=json \
    "$@"
  if ! grep -q '"vdep_build_type": "release"' "${out}.tmp"; then
    rm -f "${out}.tmp"
    echo "error: ${binary} did not stamp vdep_build_type=release; refusing to record ${out}" >&2
    exit 1
  fi
  mv "${out}.tmp" "${out}"
  echo "wrote ${out}"
}

# Merges the "benchmarks" arrays of several recorded JSONs into the first
# one's context (one baseline file for one layer, several producer binaries).
merge_into() {
  local out="$1"
  shift
  python3 - "${out}" "$@" <<'EOF'
import json, sys
out, first, *rest = sys.argv[1:]
doc = json.load(open(first))
for path in rest:
    doc["benchmarks"].extend(json.load(open(path))["benchmarks"])
json.dump(doc, open(out, "w"), indent=2)
print(f"wrote {out}")
EOF
}

record "${build_dir}/bench/micro_substrate" "${repo_root}/BENCH_substrate.json" "$@"
# The observability baseline holds both producers: tracer costs (micro_obs)
# and health-plane costs (micro_health). scripts/bench_gates.json gates each
# binary against it separately via the "current" field.
record "${build_dir}/bench/micro_obs" "${repo_root}/BENCH_obs_tracer.tmp.json" "$@"
record "${build_dir}/bench/micro_health" "${repo_root}/BENCH_obs_health.tmp.json" "$@"
merge_into "${repo_root}/BENCH_obs.json" \
  "${repo_root}/BENCH_obs_tracer.tmp.json" "${repo_root}/BENCH_obs_health.tmp.json"
rm -f "${repo_root}/BENCH_obs_tracer.tmp.json" "${repo_root}/BENCH_obs_health.tmp.json"
record "${build_dir}/bench/micro_checkpoint" "${repo_root}/BENCH_checkpoint.json" "$@"
record "${build_dir}/bench/macro_events" "${repo_root}/BENCH_kernel.json" "$@"
record "${build_dir}/bench/macro_shard" "${repo_root}/BENCH_shard.json" "$@"
record "${build_dir}/bench/macro_campaign" "${repo_root}/BENCH_parallel.json" "$@"

"${build_dir}/examples/chaos_runner" trials=200 seed=1 \
  out="${repo_root}/BENCH_chaos.json"
