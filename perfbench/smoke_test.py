#!/usr/bin/env python3
"""The benchmark's own test: every workload once at tiny size.

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload it checks that
  1. an untraced run passes its output check and prints every end-to-end
     metric of BENCHMARK.json with its unit;
  2. a traced run prints every per-layer metric with its unit and writes a
     Chrome trace;
  3. a run against a tampered reference fails its output check.
The victims are trained at the CI smoke size (400 training and 120 test
images, one epoch), so a run takes seconds once the package is built.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("campaign-lenet5", "search-deepdup", "service-minicnn")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, what):
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            raise AssertionError(f"{what}: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise AssertionError(f"{what}: {m['name']} unit {got['unit']} != {m['unit']}")
        if not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{what}: {m['name']} value is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in WORKLOADS:
        checks = [
            ("untraced", lambda: run(workload, 0)),
            ("traced", lambda: run(workload, 1)),
            ("tampered", lambda: run(workload, 0, "--tamper-reference")),
        ]
        for name, call in checks:
            what = f"{workload} {name}"
            try:
                result = call()
                if name == "tampered":
                    if result["correct"] or result["failed"] < 1:
                        raise AssertionError(f"{what}: tampered reference passed the check")
                else:
                    if not result["correct"] or result["failed"] != 0:
                        raise AssertionError(f"{what}: output check failed")
                    if result["attempted"] < 1:
                        raise AssertionError(f"{what}: no job attempted")
                    check_metrics(result, bench["end_to_end" if name == "untraced"
                                                 else "per_layer"], what)
                if name == "traced":
                    trace = os.path.join(ROOT, ".bench_out",
                                         f"trace-{workload}-seed3-smoke.json")
                    with open(trace) as f:
                        if not json.load(f)["traceEvents"]:
                            raise AssertionError(f"{what}: empty Chrome trace")
                print(f"ok   {what}")
            except (AssertionError, OSError, ValueError, KeyError) as e:
                print(f"FAIL {what}: {e}")
                failures.append(what)
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
