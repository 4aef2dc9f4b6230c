#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload prove|falsify|prove-inpr|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first run builds
perfbench/bench.exe (and the libraries it links) with dune into
.bench_build/; later runs reuse that build.  The arguments are handed to
the benchmark unchanged, its output is passed through, and its exit code
is returned: non-zero when the build fails or a verdict was wrong.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    try:
        done = subprocess.run([os.path.join(ROOT, EXE)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
