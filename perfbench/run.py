#!/usr/bin/env python3
"""Builds and runs modb's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/; later calls rebuild incrementally. The benchmark binary's
output is passed through; its last line is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "modb_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", CMAKE_DIR, "--target", "modb_perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(BUILD, "run-%s-%d" % (args.workload, os.getpid()))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--dir", run_dir]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print("perfbench: benchmark exited with %d" % done.returncode,
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
