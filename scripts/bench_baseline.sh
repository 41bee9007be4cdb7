#!/usr/bin/env bash
# Records the engine perf baselines:
#
#   bench/baseline/BENCH_E13.json     — simulator/sweep counters (steps/sec
#                                       of shared LRU, CLOCK, LFU, MARK and
#                                       LRU-SCAN through simulate() and of
#                                       the same five on the hook
#                                       instantiation, fault-curve
#                                       cells/sec, sweep cells/sec,
#                                       the sweep_grid-shaped run_jobs grid at
#                                       1 and at all runners, stamp-kernel
#                                       requests/sec across cache sizes)
#   bench/baseline/BENCH_OFFLINE.json — offline solvers (states/sec for the
#                                       FTF searches at p = 2 and on
#                                       offline_exact's p = 3 instances and
#                                       for the PIF search, and solves/sec
#                                       of sixteen independent FTF solves as
#                                       SweepRunner cells at 1 and at all
#                                       runners)
#   bench/baseline/BENCH_MCPD.json    — mcpd service layer (mcpd-loadgen
#                                       requests/sec, capacity_rps and epoch
#                                       latency quantiles across shard counts;
#                                       mixed replay plus the homogeneous
#                                       fitted-tenant scenario)
#
# Builds the google-benchmark suite and the loadgen in Release and captures
# the benchmarks that gate the perf-smoke CI job.  Every output's `context`
# object also records git_sha, cmake_build_type, compiler and mcp_options
# (the build's MCP_* CMake options), read from git and the build's
# CMakeCache.txt.  Usage:
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
# Multi-threaded benchmarks run on real time, which google-benchmark marks
# with a /real_time name suffix.
FILTER=${BENCH_FILTER:-'BM_SharedPolicy/(lru|clock|lfu|mark|lru_scan)/4$|BM_SharedPolicyHook/(lru|clock|lfu|mark|lru_scan)/4$|BM_LruFaultCurve/64$|BM_PartitionSweep/0/real_time$|BM_BatchSweep/real_time$|BM_SweepGridJobs/(1|0)/real_time$|BM_StampKernel/|BM_McpdIngest/(1|4)/real_time$'}
OFFLINE_FILTER=${OFFLINE_FILTER:-'BM_FtfSolver/(24|40|48)$|BM_FtfSolverThreeCores$|BM_FtfSolverSweep/(1|0)/real_time$|BM_PifSolver/(32|64|128)$'}
LOADGEN_ARGS=${LOADGEN_ARGS:---shards=1,2,4,8 --tenants=64 --producers=2 --repetitions=5 --homogeneous}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release \
  -DMCP_BUILD_TESTS=OFF -DMCP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD" --target bench_sim_throughput mcpd-loadgen \
  -j "$(nproc)" >/dev/null

# Build context.  google-benchmark splits --benchmark_context on ',' and
# '=', so neither may appear inside a value.
cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$BUILD/CMakeCache.txt"
}
context_value() {
  tr ',=\n' ';: ' | sed 's/ *$//'
}
# A tree with uncommitted changes is recorded as "<HEAD>-dirty"; a copy
# without git history as "unknown".
if GIT_SHA=$(git rev-parse HEAD 2>/dev/null); then
  git diff --quiet HEAD || GIT_SHA="$GIT_SHA-dirty"
else
  GIT_SHA=unknown
fi
BUILD_TYPE=$(cache_value CMAKE_BUILD_TYPE | context_value)
COMPILER=$("$(cache_value CMAKE_CXX_COMPILER)" --version | sed -n 1p |
  context_value)
MCP_OPTIONS=$(grep -E '^MCP_[A-Z_]+:' "$BUILD/CMakeCache.txt" |
  sed -E 's/^([A-Z_]+):[A-Z]+=/\1:/' | context_value)
CONTEXT="git_sha=$GIT_SHA,cmake_build_type=$BUILD_TYPE,compiler=$COMPILER,mcp_options=$MCP_OPTIONS"

mkdir -p "$(dirname "$OUT")" "$(dirname "$OFFLINE_OUT")" "$(dirname "$MCPD_OUT")"

# The previous baselines are in git history: diff against them there.
"$BUILD"/bench/bench_sim_throughput \
  --benchmark_filter="$FILTER" \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_context="$CONTEXT" \
  --benchmark_format=json >"$OUT"
echo "wrote $OUT"

"$BUILD"/bench/bench_sim_throughput \
  --benchmark_filter="$OFFLINE_FILTER" \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_context="$CONTEXT" \
  --benchmark_format=json >"$OFFLINE_OUT"
echo "wrote $OFFLINE_OUT"

# shellcheck disable=SC2086  # LOADGEN_ARGS is intentionally word-split.
"$BUILD"/src/service/mcpd-loadgen $LOADGEN_ARGS >"$MCPD_OUT"
# mcpd-loadgen has no --benchmark_context: insert the same keys at the top
# of its context object, keeping the rest of its output byte for byte.
python3 - "$MCPD_OUT" "$CONTEXT" <<'EOF'
import json
import sys

path, context = sys.argv[1], sys.argv[2]
with open(path, encoding="utf-8") as f:
    text = f.read()
anchor = '"context": {\n'
at = text.index(anchor) + len(anchor)
fields = "".join(
    f"    {json.dumps(key)}: {json.dumps(value)},\n"
    for key, value in (pair.split("=", 1) for pair in context.split(","))
)
merged = text[:at] + fields + text[at:]
json.loads(merged)  # still valid JSON
with open(path, "w", encoding="utf-8") as f:
    f.write(merged)
EOF
echo "wrote $MCPD_OUT"
