#!/usr/bin/env python3
"""Records reference outputs into perfbench/references.json.

    python3 perfbench/record_references.py --seeds 64

Run from the repository root. For each workload and each seed 0..N-1 the
benchmark program runs the workload's job once at 1 thread, untimed, and
writes its simulated statistics (two such runs at a time); this script
merges them into references.json, which every benchmark run checks its
outputs against. Record again only when a change is meant to alter
simulated results, and say so in the change.
"""
import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


# Record-mode runs in flight at once.
JOBS = 2

# Workloads whose inputs do not depend on --seed (the search keeps the
# CLI's search seed); one run records their only reference.
SEED_INDEPENDENT = {"search-deepdup"}


def record(workload, seed):
    """Runs the benchmark program in record mode; returns (workload, input
    seed, reference)."""
    cmd, env = bench.bench_command(workload, seed, "--record-reference")
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    return line["workload"], line["seed"], line["reference"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args()
    bench.prepare()

    path = os.path.join(bench.BENCH_DIR, "references.json")
    with open(path) as f:
        references = json.load(f)
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = [pool.submit(record, w, s) for w in bench.WORKLOADS
                   for s in range(1 if w in SEED_INDEPENDENT else args.seeds)]
        for future in concurrent.futures.as_completed(futures):
            workload, seed, reference = future.result()
            references.setdefault(workload, {})[seed] = reference
    # One line per seed, so a re-recording diffs seed by seed.
    lines = []
    for workload in sorted(references):
        table = references[workload]
        rows = [f'  {json.dumps(seed)}: {json.dumps(table[seed], sort_keys=True)}'
                for seed in sorted(table, key=int)]
        lines.append(f' {json.dumps(workload)}: {{\n' + ",\n".join(rows) + "\n }")
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
