#!/usr/bin/env python3
"""Measures how steady the benchmark is across seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--out FILE]
                                [--baseline FILE]

Runs perfbench/run.py once per seed for every workload (default: all in
BENCHMARK.json) with tracing off and prints, per end-to-end metric, the
median and the distance between the first and third quartiles as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound, and the host's steal during each run (from the run's note), which
marks the runs other guests slowed.  Every run must be correct.  --out
writes the raw values as JSON; --baseline reads such a file from an earlier
set and also prints how much worse each median is than the earlier one, as
a share of the earlier one.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEAL = re.compile(r"^# host steal during the run: .* CPU-s, ([0-9.e+-]+)%",
                   re.MULTILINE)


def run_once(config, workload, seed):
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s" % (
            workload, seed, done.returncode, done.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: incorrect result" % (workload, seed))
    steal = STEAL.search(done.stdout)
    return ({name: m["value"] for name, m in result["metrics"].items()},
            float(steal.group(1)) if steal else 0.0)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    raw = {}
    worst_spread = 0.0
    worst_shift = 0.0
    for workload in workloads:
        values = {}
        steals = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics_of_run, steal = run_once(config, workload, seed)
            for name, value in metrics_of_run.items():
                values.setdefault(name, []).append(value)
            steals.append(steal)
        raw[workload] = values
        print("%-22s host steal per run (%% of CPU time): %s" % (
            workload, " ".join("%.1f" % v for v in steals)))
        for name, series in values.items():
            bound = metrics[name]["bound"]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            worst_spread = max(worst_spread, spread / bound)
            line = "%-22s %-18s median %-12.6g spread %.4f (bound %.2f)" % (
                workload, name, median, spread, bound)
            earlier = baseline.get(workload, {}).get(name)
            if earlier:
                before = statistics.median(earlier)
                now = statistics.median(series)
                worse = (now - before) / before
                if metrics[name]["better"] == "higher":
                    worse = -worse
                worst_shift = max(worst_shift, worse / bound)
                line += "; median %+.4f worse than the baseline's" % worse
            print(line)
        sys.stdout.flush()
    print("largest spread as a share of its bound: %.3f" % worst_spread)
    if baseline:
        print("largest worsening of a median as a share of its bound: %.3f"
              % worst_shift)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
