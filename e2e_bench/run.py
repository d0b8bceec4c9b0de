#!/usr/bin/env python3
"""Builds xarch in Release and runs the end-to-end benchmark.

    python3 e2e_bench/run.py --workload curate|serve|mixed|sharded \
        --seed N --seconds S --trace 0|1

Run from the repository root. Without --workload every workload runs, each
in its own process. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; build output goes to stderr, so the last line
of standard output is the run's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["curate", "serve", "mixed", "sharded"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "xarch", "store.h")):
        sys.exit("e2e_bench: the xarch sources (src/) are not in this checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "e2e")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("e2e_bench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "xarch_e2e")


def run(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("e2e_bench: %s did not finish in time" % workload)
    if done.returncode != 0:
        sys.exit("e2e_bench: %s exited with %d" % (workload, done.returncode))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    binary = build()
    for workload in [args.workload] if args.workload else WORKLOADS:
        sys.stdout.flush()
        run(binary, workload, args)


if __name__ == "__main__":
    main()
