#!/usr/bin/env python3
"""Gate the perf-smoke CI job on a committed benchmark baseline.

Compares a fresh google-benchmark JSON run (bench_baseline.sh output)
against the committed baseline and fails when any gated counter's median
regresses by more than the tolerance (default 25%).  Improvements and
regressions within tolerance pass; other counters are reported for context
but do not gate.

Gates are `BENCHMARK:COUNTER` pairs, repeatable:

  # E13 simulator, batch-sweep and fault-curve gates (the defaults when no
  # --gate is given), plus the
  # within-run ratio of the run_jobs sweep (composed from per-core runs,
  # each a one-region paging pass) to strategy objects on the same
  # partition grid, of the sweep_grid-shaped run_jobs grid at all
  # runners to one runner (real-time benchmarks carry google-benchmark's
  # /real_time suffix), of a stamp-kernel job at K = 512 to K = 8, and of
  # shared CLOCK, MARK and LRU-SCAN on their stamp kernels to the same
  # strategy objects on the hook instantiation
  scripts/check_perf_regression.py CURRENT.json \
      --speedup 'BM_BatchSweep/real_time:cells_per_sec' \
                'BM_PartitionSweep/0/real_time:cells_per_sec' 3.0 \
      --speedup 'BM_SweepGridJobs/0/real_time:cells_per_sec' \
                'BM_SweepGridJobs/1/real_time:cells_per_sec' 1.25 \
      --speedup 'BM_StampKernel/zipf/512:requests_per_sec' \
                'BM_StampKernel/zipf/8:requests_per_sec' 0.35 \
      --speedup 'BM_SharedPolicy/clock/4:steps_per_sec' \
                'BM_SharedPolicyHook/clock/4:steps_per_sec' 1.5 \
      --speedup 'BM_SharedPolicy/mark/4:steps_per_sec' \
                'BM_SharedPolicyHook/mark/4:steps_per_sec' 3.5 \
      --speedup 'BM_SharedPolicy/lru_scan/4:steps_per_sec' \
                'BM_SharedPolicyHook/lru_scan/4:steps_per_sec' 3.0
  # offline solver gate (BENCH_OFFLINE.json), plus the within-run ratio of
  # independent FTF solves at all SweepRunner runners vs one
  scripts/check_perf_regression.py CURRENT.json bench/baseline/BENCH_OFFLINE.json \
      --gate 'BM_FtfSolver/48:states_per_sec' \
      --gate 'BM_PifSolver/128:states_per_sec' \
      --speedup 'BM_FtfSolverSweep/0/real_time:solves_per_sec' \
                'BM_FtfSolverSweep/1/real_time:solves_per_sec' 1.5
  # mcpd service gate (BENCH_MCPD.json, mcpd-loadgen output: daemon ingest
  # throughput at 1 shard plus aggregate shard capacity at 8 shards)
  scripts/check_perf_regression.py CURRENT.json bench/baseline/BENCH_MCPD.json \
      --gate 'mcpd_loadgen/shards/1:requests_per_sec' \
      --gate 'mcpd_loadgen/shards/8:capacity_rps'

Usage:
  scripts/check_perf_regression.py CURRENT.json [BASELINE.json]
      [--tolerance 0.25] [--gate NAME:COUNTER]...
"""
from __future__ import annotations

import argparse
import json
import sys

DEFAULT_GATES = (
    # Shared LRU through simulate(), which takes the LRU stamp kernel, and
    # the same strategy object on the hook instantiation, the only path of
    # observers, streams, Lemma 3 and the policies no kernel implements.
    "BM_SharedPolicy/lru/4:steps_per_sec",
    "BM_SharedPolicyHook/lru/4:steps_per_sec",
    # The partition sweep through SweepRunner::run_jobs, which composes the
    # grid's jobs from shared per-core runs, each a one-region paging pass;
    # 25% default tolerance like every other gate.
    "BM_BatchSweep/real_time:cells_per_sec",
    # The fault-curve path: per-core Mattson stack-distance scans behind
    # partition search and mcpd's curve and partition answers.
    "BM_LruFaultCurve/64:curve_cells_per_sec",
)
CONTEXT_COUNTERS = (
    "steps_per_sec",
    "faults_per_sec",
    "curve_cells_per_sec",
    "cells_per_sec",
    "lane_steps_per_sec",
    "states_per_sec",
    # Offline solver counters (BENCH_OFFLINE.json): independent FTF solves
    # per wall second through SweepRunner (the perf-smoke --speedup pair),
    # and the interner's peak resident bytes per stored state.
    "solves_per_sec",
    "bytes_per_state",
    # Service layer (BM_McpdIngest and the mcpd-loadgen BENCH_MCPD.json):
    # daemon ingest pairs/sec, loadgen wall throughput, aggregate per-shard
    # capacity, and the epoch-latency tail.
    "pairs_per_sec",
    "requests_per_sec",
    "capacity_rps",
    "epoch_p99_ns",
)


def load_medians(path: str, counters: set[str]) -> dict[str, dict[str, float]]:
    """Map benchmark name -> {counter: value} for median aggregates."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    medians: dict[str, dict[str, float]] = {}
    for bench in data.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        name = bench["name"].removesuffix("_median")
        found = {key: value for key, value in bench.items() if key in counters}
        if found:
            medians[name] = found
    return medians


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh bench_baseline.sh JSON output")
    parser.add_argument(
        "baseline",
        nargs="?",
        default="bench/baseline/BENCH_E13.json",
        help="committed baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression (default: %(default)s)",
    )
    parser.add_argument(
        "--gate",
        action="append",
        metavar="NAME:COUNTER",
        help="gated benchmark/counter pair; repeatable "
        f"(default: {' '.join(DEFAULT_GATES)})",
    )
    parser.add_argument(
        "--speedup",
        action="append",
        nargs=3,
        metavar=("FAST", "SLOW", "MIN"),
        help="within-run ratio gate: fail unless the current run's median "
        "FAST counter is at least MIN times its SLOW counter (both "
        "NAME:COUNTER).  Unlike --gate this compares two scenarios of the "
        "same run, so it is immune to machine-speed drift; repeatable",
    )
    args = parser.parse_args()

    gates: set[tuple[str, str]] = set()
    for spec in args.gate or DEFAULT_GATES:
        name, sep, counter = spec.rpartition(":")
        if not sep or not name or not counter:
            parser.error(f"--gate must be NAME:COUNTER, got {spec!r}")
        gates.add((name, counter))

    speedups: list[tuple[str, str, str, str, float]] = []
    for fast_spec, slow_spec, min_spec in args.speedup or ():
        fast_name, fast_sep, fast_counter = fast_spec.rpartition(":")
        slow_name, slow_sep, slow_counter = slow_spec.rpartition(":")
        if not (fast_sep and fast_name and slow_sep and slow_name):
            parser.error(
                f"--speedup operands must be NAME:COUNTER, got "
                f"{fast_spec!r} {slow_spec!r}"
            )
        try:
            minimum = float(min_spec)
        except ValueError:
            parser.error(f"--speedup MIN must be a number, got {min_spec!r}")
        speedups.append(
            (fast_name, fast_counter, slow_name, slow_counter, minimum)
        )

    counters = (
        set(CONTEXT_COUNTERS)
        | {counter for _, counter in gates}
        | {c for _, fc, _, sc, _ in speedups for c in (fc, sc)}
    )
    current = load_medians(args.current, counters)
    baseline = load_medians(args.baseline, counters)

    failed = False
    failed_gates: list[str] = []
    for name in sorted(baseline):
        base_counters = baseline[name]
        cur_counters = current.get(name)
        if cur_counters is None:
            gated_bench = any(gate_name == name for gate_name, _ in gates)
            print(f"MISSING  {name}: benchmark absent from current run")
            failed = failed or gated_bench
            continue
        for counter, base in sorted(base_counters.items()):
            gated = (name, counter) in gates
            cur = cur_counters.get(counter)
            if cur is None:
                print(f"MISSING  {name}.{counter}: counter absent")
                failed = failed or gated
                continue
            ratio = cur / base if base > 0 else float("inf")
            regressed = ratio < 1.0 - args.tolerance
            tag = "GATE" if gated else "info"
            verdict = "FAIL" if (gated and regressed) else "ok"
            print(
                f"{verdict:4s} [{tag}] {name}.{counter}: "
                f"{cur:,.0f} vs baseline {base:,.0f} ({ratio:.2f}x)"
            )
            if gated and regressed:
                failed = True
                failed_gates.append(f"{name}.{counter}")

    for gate_name, _gate_counter in sorted(gates):
        if gate_name not in baseline:
            print(f"MISSING  {gate_name}: gated benchmark absent from baseline")
            failed = True

    for fast_name, fast_counter, slow_name, slow_counter, minimum in speedups:
        fast = current.get(fast_name, {}).get(fast_counter)
        slow = current.get(slow_name, {}).get(slow_counter)
        if fast is None or slow is None or slow <= 0:
            print(
                f"MISSING  speedup {fast_name}.{fast_counter} / "
                f"{slow_name}.{slow_counter}: data absent from current run"
            )
            failed = True
            failed_gates.append(f"{fast_name}.{fast_counter} speedup")
            continue
        ratio = fast / slow
        ok = ratio >= minimum
        print(
            f"{'ok' if ok else 'FAIL':4s} [GATE] {fast_name}.{fast_counter} / "
            f"{slow_name}.{slow_counter}: {ratio:.2f}x (need >= {minimum:g}x)"
        )
        if not ok:
            failed = True
            failed_gates.append(
                f"{fast_name}.{fast_counter} speedup {ratio:.2f}x < {minimum:g}x"
            )

    if failed:
        print(
            f"\nperf regression: {', '.join(failed_gates) or 'gated data missing'} "
            f"(baseline {args.baseline}, tolerance {args.tolerance:.0%}).  If "
            "the slowdown is intentional, regenerate the baseline with "
            "scripts/bench_baseline.sh and commit it.",
            file=sys.stderr,
        )
        return 1
    print("\nperf check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
