#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks, at the tiny problem size:
  * every workload prints exactly the end-to-end metrics of BENCHMARK.json
    (names and units, all nonzero) untraced, and exactly its per-layer
    metrics traced, with correct answers on two seeds and the traced run's
    reconciliation checks holding;
  * the negative control: with a deliberately perturbed oracle every
    workload reports failures, correct=false and a nonzero exit status;
  * a directory holding only BENCHMARK.json and the benchmark's files (no
    library sources) makes the command fail without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(config, cwd, *extra):
    command = list(config["command"]) + list(extra)
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done


class Checker:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            self.failures.append(what)


def check_metrics(checker, label, result, specs, nonzero):
    metrics = result["metrics"]
    checker.expect(sorted(metrics) == sorted(s["name"] for s in specs),
                   "%s prints exactly the named metrics" % label)
    for spec in specs:
        metric = metrics.get(spec["name"])
        if metric is None:
            continue
        checker.expect(metric["unit"] == spec["unit"],
                       "%s %s unit %s" % (label, spec["name"], spec["unit"]))
        if nonzero:
            checker.expect(metric["value"] > 0,
                           "%s %s is nonzero" % (label, spec["name"]))


def main():
    config = load_config()
    checker = Checker()
    tiny = ["--seconds", "0.3", "--size", "tiny"]
    for workload in [w["name"] for w in config["workloads"]]:
        for seed in ("1", "2"):
            label = "%s seed %s" % (workload, seed)
            code, result, _ = run(config, ROOT, "--workload", workload,
                                  "--seed", seed, "--trace", "0", *tiny)
            checker.expect(code == 0 and result is not None
                           and result["correct"] and result["failed"] == 0
                           and result["attempted"] > 0,
                           "%s untraced run is correct" % label)
            if result is not None:
                check_metrics(checker, label, result, config["end_to_end"],
                              nonzero=True)
        code, result, _ = run(config, ROOT, "--workload", workload,
                              "--seed", "1", "--trace", "1", *tiny)
        label = "%s traced" % workload
        checker.expect(code == 0 and result is not None and result["correct"],
                       "%s run is correct" % label)
        if result is not None:
            check_metrics(checker, label, result, config["per_layer"],
                          nonzero=False)
            checker.expect(
                result["metrics"].get("trace.reconciled", {}).get("value") == 1,
                "%s reconciliation checks hold" % label)
        code, result, _ = run(config, ROOT, "--workload", workload,
                              "--seed", "1", "--trace", "0",
                              "--perturb-oracle", *tiny)
        checker.expect(code != 0 and result is not None
                       and not result["correct"] and result["failed"] > 0,
                       "%s perturbed oracle fails the run" % workload)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in config["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(config, bare, "--workload",
                          config["workloads"][0]["name"], "--seed", "1",
                          "--trace", "0", *tiny)
    checker.expect(code != 0 and result is None,
                   "without library sources the command fails, no result")
    shutil.rmtree(bare, ignore_errors=True)

    if checker.failures:
        print("%d check(s) failed" % len(checker.failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
