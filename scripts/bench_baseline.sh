#!/usr/bin/env bash
# Records the engine perf baselines:
#
#   bench/baseline/BENCH_E13.json     — simulator/sweep counters (steps/sec,
#                                       fault-curve cells/sec, sweep cells/sec)
#   bench/baseline/BENCH_OFFLINE.json — offline solver engines (states/sec for
#                                       the packed and reference FTF/PIF
#                                       engines, the packed-speedup record)
#   bench/baseline/BENCH_MCPD.json    — mcpd service layer (mcpd-loadgen
#                                       requests/sec, capacity_rps and epoch
#                                       latency quantiles across shard counts;
#                                       mixed replay plus the homogeneous
#                                       fitted-tenant scenario)
#
# Builds the google-benchmark suite and the loadgen in Release and captures
# the benchmarks that gate the perf-smoke CI job.  Usage:
#
#   scripts/bench_baseline.sh [e13_output.json [offline_output.json [mcpd_output.json]]]
#
# Environment: BUILD_DIR overrides the build directory (default:
# build-bench); BENCH_FILTER / OFFLINE_FILTER override the benchmark
# selections; LOADGEN_ARGS overrides the mcpd-loadgen invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-bench/baseline/BENCH_E13.json}
OFFLINE_OUT=${2:-bench/baseline/BENCH_OFFLINE.json}
MCPD_OUT=${3:-bench/baseline/BENCH_MCPD.json}
BUILD=${BUILD_DIR:-build-bench}
FILTER=${BENCH_FILTER:-'BM_SharedPolicy/lru/4$|BM_LruFaultCurve/64$|BM_PartitionSweep/0$|BM_BatchSweep$|BM_McpdIngest/(1|4)$'}
OFFLINE_FILTER=${OFFLINE_FILTER:-'BM_FtfSolver/(packed|reference)/(24|40|48)$|BM_FtfSolverParallel/(1|8)$|BM_PifSolver/(packed|reference)/(32|64|128)$'}
LOADGEN_ARGS=${LOADGEN_ARGS:---shards=1,2,4,8 --tenants=64 --producers=2 --repetitions=5 --homogeneous}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release \
  -DMCP_BUILD_TESTS=OFF -DMCP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD" --target bench_sim_throughput mcpd-loadgen \
  -j "$(nproc)" >/dev/null

mkdir -p "$(dirname "$OUT")" "$(dirname "$OFFLINE_OUT")" "$(dirname "$MCPD_OUT")"

# The previous baselines are in git history: diff against them there.
"$BUILD"/bench/bench_sim_throughput \
  --benchmark_filter="$FILTER" \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_format=json >"$OUT"
echo "wrote $OUT"

"$BUILD"/bench/bench_sim_throughput \
  --benchmark_filter="$OFFLINE_FILTER" \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_format=json >"$OFFLINE_OUT"
echo "wrote $OFFLINE_OUT"

# shellcheck disable=SC2086  # LOADGEN_ARGS is intentionally word-split.
"$BUILD"/src/service/mcpd-loadgen $LOADGEN_ARGS >"$MCPD_OUT"
echo "wrote $MCPD_OUT"
