#!/usr/bin/env python3
"""Builds and runs the subsel end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--threads T] [--serve-rate-hz R] [--calibrate]

Run from the repository root. Builds the library and the benchmark program
(Release, into .bench_build/), generates the seeded input once in a separate
process, then runs the workload in a process of its own and forwards its
output; the last stdout line is the result JSON. Exits nonzero on a build
failure, a missing input, or any failed output check.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_build"
BUILD_DIR = os.path.join(WORK_DIR, "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures once, then brings the program up to date; build output goes
    to stderr so stdout stays the benchmark's own."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def main(argv):
    if "--workload" not in argv:
        sys.exit("run.py: --workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")
    args = argv + ["--work-dir", WORK_DIR]
    # Input generation and the reference solve run (and peak) in their own
    # process, outside every measurement.
    prepare = subprocess.run([BINARY, *args, "--prepare"], stdout=sys.stderr)
    if prepare.returncode != 0:
        sys.exit(f"run.py: input preparation failed ({prepare.returncode})")
    sys.stdout.flush()
    run = subprocess.run([BINARY, *args])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
