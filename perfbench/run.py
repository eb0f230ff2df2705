#!/usr/bin/env python3
"""End-to-end benchmark of deepstrike: one run of one workload.

    python3 perfbench/run.py --workload campaign-lenet5 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the benchmark package
(perfbench/CMakeLists.txt: the deepstrike libraries, the CLI and bench.cpp)
under .bench_build/ and trains the victims into a weight cache under
.bench_out/cache/. Every file a run writes lands under .bench_out/.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
Everything else goes to stderr. The exit code is not 0, and no result is
printed, when the build or the run fails. perfbench/NOTES.md has the details.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("campaign-lenet5", "search-deepdup", "service-minicnn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark package; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def out_dir():
    return os.path.join(ROOT, ".bench_out")


def bench_command(workload, seed, *options):
    """The benchmark program's command for one workload and seed, plus its environment
    (the weight cache lives under the output directory)."""
    bdir = build_dir()
    cmd = [os.path.join(bdir, "perfbench"), workload, "--seed", str(seed),
           "--out", out_dir(), "--cli", os.path.join(bdir, "deepstrike_tools", "deepstrike"),
           "--references", os.path.join(BENCH_DIR, "references.json"), *options]
    env = dict(os.environ)
    env["DEEPSTRIKE_CACHE_DIR"] = os.path.join(out_dir(), "cache")
    return cmd, env


def prepare():
    """Checks for the sources, then builds; exits non-zero without them."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"deepstrike sources not found under {ROOT}")
    os.makedirs(out_dir(), exist_ok=True)
    build(build_dir())


def keep_failure(tag, trace, stderr):
    """Copies the stderr and every output file of a failed run into a
    directory of its own under .bench_out/failed/, which no later run
    overwrites."""
    keep = os.path.join(out_dir(), "failed",
                        f"{tag}-trace{trace}-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}")
    os.makedirs(keep)
    with open(os.path.join(keep, "stderr.txt"), "w") as f:
        f.write(stderr)
    for name in os.listdir(out_dir()):
        path = os.path.join(out_dir(), name)
        if os.path.isfile(path) and (f"{tag}-" in name or f"{tag}." in name):
            shutil.copy2(path, keep)
    print(f"perfbench: evidence of the failed run kept in {keep}", file=sys.stderr)


def run_bench(cmd, env, tag, trace, expect_failure):
    """Runs the benchmark program in its own process group, so a timeout can
    stop it and every process it started. Returns its result line; keeps
    the evidence of a run that fails, unless `expect_failure`."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    error = None
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        error = f"run exceeded {RUN_TIMEOUT_S} s"
    sys.stderr.write(err)
    if error is None and proc.returncode != 0:
        error = f"benchmark program exited with code {proc.returncode}"
    result = None
    if error is None:
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = "benchmark program printed no result"
    if not expect_failure and (error is not None or result["failed"] > 0):
        keep_failure(tag, trace, err)
    if error is not None:
        fail(error)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny victims and jobs (the benchmark's own test)")
    parser.add_argument("--tamper-reference", action="store_true",
                        help="alter the reference so the output check must fail")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    prepare()
    options = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        options.append("--smoke")
    if args.tamper_reference:
        options.append("--tamper-reference")
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    result = run_bench(*bench_command(args.workload, args.seed, *options), tag, args.trace,
                       args.tamper_reference)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
