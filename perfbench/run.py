#!/usr/bin/env python3
"""Build and run the simulator host-cost benchmark.

    python3 perfbench/run.py --workload conv_mac --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the simulator library from src/) into
.bench_build/; later calls only re-check the build. Build output goes
to stderr. The benchmark binary's stdout is passed through unchanged,
so the last line is the result object. The exit status is non-zero, with no
result printed, when the sources are missing or the build or the run
fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found under "
                 + ROOT)
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "-j", "4"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    build()
    done = subprocess.run([BINARY] + sys.argv[1:])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
