#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload kfk_registry --seed 1 --seconds 20 --trace 0

Every argument goes to the e2ebench binary (see e2ebench/README.md). The
build directory is $CARGO_TARGET_DIR when set, else .bench_build; generated
lakes go to .bench_work and traced-run artifacts to .bench_out, all at the
repository root. Build output goes to stderr, so the last line on stdout is
the binary's JSON result. The exit code is the binary's, or 1 when the
build fails or the binary outlives its deadline (100 s plus twice
--seconds), in which case it is killed and no result is printed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "e2ebench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(build_dir, "e2ebench"),
               "--work-dir", os.path.join(ROOT, ".bench_work"),
               "--out-dir", os.path.join(ROOT, ".bench_out")] + sys.argv[1:]
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seconds", type=float, default=10.0)
    deadline = 100 + 2 * parser.parse_known_args()[0].seconds
    try:
        return subprocess.run(command, cwd=ROOT, timeout=deadline).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: killed after %.0f s without finishing" % deadline,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
