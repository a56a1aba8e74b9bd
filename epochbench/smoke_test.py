#!/usr/bin/env python3
"""Smoke test for the whole-epoch benchmark.

Runs every workload's code path at toy scale (a few hundred nodes),
untraced twice and traced once, and asserts that

  * every metric BENCHMARK.json names is printed, with its unit;
  * the correctness gate passes (correct, no failed iterations);
  * the outcome digest is equal across the two untraced runs and the
    traced run of the same seed.

    python3 epochbench/smoke_test.py

Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY_NODES = 300
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--nodes", str(TOY_NODES)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         cwd=ROOT, timeout=600, check=True).stdout
    lines = out.strip().splitlines()
    digest = [l for l in lines if l.startswith("digest ")]
    return json.loads(lines[-1]), digest[-1] if digest else None


def check_metrics(result, expected, where, errors):
    printed = result["metrics"]
    for spec in expected:
        metric = printed.get(spec["name"])
        if metric is None:
            errors.append(f"{where}: {spec['name']} not printed")
        elif metric.get("unit") != spec["unit"] or \
                not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{where}: {spec['name']} printed as {metric}")
    extra = set(printed) - {spec["name"] for spec in expected}
    if extra:
        errors.append(f"{where}: unexpected metrics {sorted(extra)}")
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        errors.append(f"{where}: correctness gate failed: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        first, digest1 = run(workload, 0)
        second, digest2 = run(workload, 0)
        traced, digest3 = run(workload, 1)
        check_metrics(first, bench["end_to_end"], workload, errors)
        check_metrics(traced, bench["per_layer"], workload + " traced",
                      errors)
        if not digest1 or not re.fullmatch(r"digest \S+ seed=\d+ [0-9a-f]{16}",
                                           digest1):
            errors.append(f"{workload}: no digest line")
        elif not digest1 == digest2 == digest3:
            errors.append(f"{workload}: digests differ: "
                          f"{digest1} / {digest2} / {digest3}")
        if traced["metrics"]["kube.invariant_violations"]["value"] != 0:
            errors.append(f"{workload}: kube invariant violations")
        print(f"{workload}: {digest1}", flush=True)
    for error in errors:
        print("FAIL", error)
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
