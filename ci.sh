#!/usr/bin/env bash
# Tier-1 verification plus strict warnings on the library targets.
# Mirrors .github/workflows/ci.yml for offline use.
#
# Usage: ci.sh [--fast | --bench]
#   --fast   run only the `unit` ctest label (skips the property and
#            integration suites; the CI sanitize job always runs everything)
#   --bench  instead of the tests, the bench-smoke gate (CI's bench-smoke
#            job runs exactly this): a Release build, the whole
#            bench_ordering_ablation into build-bench/bench_ordering.json
#            and bench_check on the smoke families into
#            build-bench/bench_check_smoke.json, checked against
#            BENCH_ordering.json and BENCH_check.json; then the benchmark
#            harness's traced replica (perfbench/run.py --trace 1) on
#            scaled-saturation and on table1-cofactor, the paper's
#            method, each of which must report every check correct
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR="${BUILD_DIR:-build-ci}"

FAST=0
BENCH=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    *) echo "usage: $0 [--fast | --bench]" >&2; exit 2 ;;
  esac
done

CMAKE_EXTRA=()
if command -v ccache > /dev/null 2>&1; then
  CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

if [[ "$BENCH" == 1 ]]; then
  BENCH_DIR="${BENCH_BUILD_DIR:-build-bench}"
  cmake -B "$BENCH_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DSTGCHECK_WERROR=ON \
    "${CMAKE_EXTRA[@]}"
  cmake --build "$BENCH_DIR" -j "$(nproc)" \
    --target bench_check bench_ordering_ablation
  timeout 600 "./$BENCH_DIR/bench_ordering_ablation" \
    --out "$BENCH_DIR/bench_ordering.json"
  python3 scripts/check_bench_regression.py \
    BENCH_ordering.json "$BENCH_DIR/bench_ordering.json" \
    --time-threshold 4.0 --min-seconds 1.0 \
    --require-arm interleaved \
    --exact-sequential-peaks
  timeout 600 "./$BENCH_DIR/bench_check" --repeat 1 \
    --family muller16 --family mutex12 --family muller64 \
    --family mread8 --family mutex24 --family muller64-extra-token \
    --out "$BENCH_DIR/bench_check_smoke.json"
  python3 scripts/check_bench_regression.py \
    BENCH_check.json "$BENCH_DIR/bench_check_smoke.json" \
    --time-threshold 4.0 --min-seconds 1.0 \
    --require-arm default --require-arm cofactor \
    --require-arm monolithic --require-arm saturation \
    --exact-sequential-peaks
  # The harness rebuilds check_implementability from each layer's public
  # calls; --trace 1 runs that replica, whose guard exits 3 when its
  # level, states or peak drift from CheckSession::run.
  for workload in scaled-saturation table1-cofactor; do
    python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 5 --trace 1 | tee "$BENCH_DIR/perfbench_$workload.out"
    tail -n 1 "$BENCH_DIR/perfbench_$workload.out" | python3 -c \
      'import json, sys; r = json.loads(sys.stdin.read()); assert r["correct"] is True, r'
  done
  exit 0
fi

cmake -B "$BUILD_DIR" -S . -DSTGCHECK_WERROR=ON "${CMAKE_EXTRA[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
if [[ "$FAST" == 1 ]]; then
  ctest --test-dir "$BUILD_DIR" -L unit --output-on-failure -j "$(nproc)"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi
