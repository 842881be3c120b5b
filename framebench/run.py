#!/usr/bin/env python3
"""Builds and runs the frame-path benchmark (see README.md).

    python3 framebench/run.py --workload paper_call --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
repository's libraries plus the benchmark binary into .bench_build/ (CMake,
about half a minute on 4 cores); later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Exits non-zero, printing no result, when the build or the run
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "framebench")
OUT = os.path.join(ROOT, ".bench_build", "framebench-out")
WORKLOADS = ("paper_call", "serve_fleet", "burst_wire")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("framebench: no repository sources at %s" % ROOT, file=sys.stderr)
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "framebench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("framebench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "framebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", OUT]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("framebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
