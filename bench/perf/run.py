#!/usr/bin/env python3
"""Builds perf_suite from this checkout and runs one workload.

    python3 bench/perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perf_suite (and the library sources it links) under .bench_build/ in the
checkout; later runs rebuild only what changed. --trace 0 runs the
untraced closed loop and prints the end-to-end metrics; --trace 1 runs
the traced layer replay and prints the per-layer metrics and writes its
spans to .bench_build/perf/spans_<workload>.json. Either way the last line
of standard output is the benchmark's JSON result. Build output goes to
standard error. The exit code is non-zero, and no result is printed,
when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perf")
BINARY = os.path.join(BUILD, "perf_suite")
# The per-run limit is 180 s; leave room for the rebuild check.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perf_suite; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perf_suite",
                  "-j", "4"])
    for step in steps:
        # Keep standard output for the result line alone.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perf_suite: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace-layers", "--spans",
                    os.path.join(BUILD, "spans_%s.json" % args.workload)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perf_suite: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
