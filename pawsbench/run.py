#!/usr/bin/env python3
"""Builds and runs the PAWS serving benchmark.

    python3 pawsbench/run.py --workload hot_maps|cold_tiles|plan_patrol \\
        --seed N --seconds S --trace 0|1
    python3 pawsbench/run.py --selftest

Run from the repository root. The benchmark package (pawsbench/CMakeLists.txt)
compiles the repository's src/ tree and the benchmark into
.bench_build/pawsbench; later runs only re-check it. Build output goes
to stderr, so the benchmark's last stdout line is its JSON result. The traced
run (--trace 1) also writes its spans to
.bench_build/pawsbench-trace-<workload>-<seed>.jsonl.

Exits non-zero without a result when the build fails (for example when the
source tree is absent) or the benchmark does not finish in time.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pawsbench")
RUN_TIMEOUT_S = 170


def build(target):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", target, "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("pawsbench_selftest")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build("pawsbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"pawsbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            ROOT, ".bench_build",
            f"pawsbench-trace-{args.workload}-{args.seed}.jsonl")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pawsbench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
