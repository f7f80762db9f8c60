#!/usr/bin/env python3
"""Builds and runs the ompgpu repository benchmark.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of the repository. The first call configures and
builds perfbench/ (the ompgpu libraries from src/ plus the benchmark
program) under .bench_build/ with the repository's default build type;
later calls rebuild only what changed. The program prints every metric with
its unit and ends with one JSON line; see perfbench/NOTES.md. Exit codes:
0 all checks passed, 1 a correctness check failed, 2 the build or the
arguments failed, 3 the run timed out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return False


def build():
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            return None
    jobs = str(min(os.cpu_count() or 1, 8))
    if not run_quiet(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(CMAKE_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["ladder", "fuzz-cold", "fuzz-warm"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    name = "self-test" if args.self_test else f"{args.workload}-{args.seed}"
    work = os.path.join(BUILD, "work", f"{name}-{os.getpid()}")
    cmd = [exe, "--work-dir", work]
    if args.self_test:
        cmd.append("--self-test")
    else:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--state-dir", os.path.join(BUILD, "state"),
                "--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the program on timeout.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
