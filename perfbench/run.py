#!/usr/bin/env python3
"""Build the simulator and the perfbench driver from source, then run one workload.

    python3 perfbench/run.py --workload dsm-cholesky --seed 1 --seconds 10 --trace 0

Run it from the repository root. The driver's last line on stdout is the
JSON result; build output and progress go to stderr. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("dsm-cholesky", "dsm-jacobi", "serve-hostpath", "serve-faulty-torus")
BUILD_DIR = ".bench_build"
TARGET = "perfbench/main.exe"
# the first build compiles the whole simulator; later ones are no-ops
BUILD_TIMEOUT_S = 700
# the driver stops starting new work well inside this
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", TARGET]
    try:
        built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    driver = [os.path.join(BUILD_DIR, "default", TARGET),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        ran = subprocess.run(driver, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: driver did not finish: {e}", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
