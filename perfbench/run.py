#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The build goes to _build/ (its
output to standard error); the benchmark's own standard output is passed
through, so its last line is the run's JSON result.  The exit code is the
benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys

BUILD_DIR = "_build"
TARGET = "./perfbench/perfbench.exe"


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("perfbench: no dune-project here; run from the repository root\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
