#!/usr/bin/env bash
# Builds every benchmark in Release mode and refreshes bench_results/.
#
# Usage:  tools/run_benchmarks.sh [bench_name ...]
#
# With no arguments every bench/bench_*.cpp target is built and run; with
# arguments only the named benches run (e.g. `tools/run_benchmarks.sh
# bench_parallel`). Each run writes bench_results/BENCH_<name>.json in
# google-benchmark's JSON format (machine-readable: context block with CPU
# info + build type). Every benchmark runs 5 repetitions and the JSON keeps
# only their mean/median/stddev/cv aggregates (compare_benchmarks.py
# compares means), so every baseline has the same length and shape.
#
# Environment:
#   BUILD_DIR   Release build tree (default: build-release)
#   MIN_TIME    --benchmark_min_time value in seconds (default: benchmark's
#               own heuristic; set e.g. MIN_TIME=0.01 for a smoke run)
#
# Each JSON's context block is stamped with git_sha (suffixed -dirty when
# the tree has uncommitted changes), cmake_build_type and nproc, so a
# baseline records what it measured and on how many cores.
#
# Results are only comparable when produced by this script: a DEBUG-build
# number is meaningless (google-benchmark itself warns), so the script
# exits 1 when the configured tree is not Release, and the output lands in
# files prefixed BENCH_ -- anything else in bench_results/ is legacy and
# should be deleted rather than compared against.
#
# To check a fresh run against the committed baselines (e.g. before
# refreshing them), diff the JSON files with the companion script:
#
#   tools/run_benchmarks.sh bench_cutsets
#   git stash -- bench_results   # or copy the old file aside first
#   tools/compare_benchmarks.py /tmp/old_cutsets.json \
#       bench_results/BENCH_cutsets.json --threshold 20
#
# compare_benchmarks.py exits 1 on any regression beyond --threshold
# percent; CI runs it warn-only on the ZBDD engine series.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-release}"
RESULTS_DIR="bench_results"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

# A non-Release number is meaningless, so refuse to produce one (a
# multi-config generator, for one, leaves the cache entry empty).
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")"
if [ "$build_type" != "Release" ]; then
  echo "error: $BUILD_DIR is configured as '$build_type', not Release" >&2
  exit 1
fi

if [ "$#" -gt 0 ]; then
  benches=("$@")
else
  benches=()
  for source in bench/bench_*.cpp; do
    name="$(basename "$source" .cpp)"
    benches+=("$name")
  done
fi

cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${benches[@]}"

mkdir -p "$RESULTS_DIR"

git_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then git_sha="$git_sha-dirty"; fi
context="git_sha=$git_sha,cmake_build_type=$build_type,nproc=$(nproc)"

extra_args=()
if [ -n "${MIN_TIME:-}" ]; then
  extra_args+=("--benchmark_min_time=$MIN_TIME")
fi

for name in "${benches[@]}"; do
  out="$RESULTS_DIR/BENCH_${name#bench_}.json"
  echo "== $name -> $out"
  "$BUILD_DIR/bench/$name" \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_context="$context" \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    "${extra_args[@]}" >/dev/null
done

echo "done: ${#benches[@]} benchmark suites in $RESULTS_DIR/"
