#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny dataset sizes.

    python3 lnbbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced for two seconds
at the --tiny sizes and checks each result line: correct, no failed
operations, and exactly the end-to-end (untraced) or per-layer (traced)
metric names BENCHMARK.json lists, each a finite number with its unit.
Exits non-zero on the first violation.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return "exit code %d" % proc.returncode
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys %s" % sorted(result)
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        return "correct=%s failed=%s attempted=%s" % (
            result["correct"], result["failed"], result["attempted"])
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    if set(got) != set(want):
        return "metric names differ: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, m in got.items():
        if m["unit"] != want[name] or not math.isfinite(m["value"]):
            return "metric %s = %s" % (name, m)
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            err = check(w["name"], trace, spec)
            print("%-10s trace=%d %s" % (w["name"], trace, err or "ok"))
            failures += err is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
