#!/usr/bin/env python3
"""SHOAL benchmark runner.

    python3 perfbench/run.py --workload build|daemon --seed N \
        --seconds S --trace 0|1

The workload must be one of BENCHMARK.json's.

Builds the benchmark binary and the SHOAL libraries from the checkout's
sources (Release, into .bench_build/ at the checkout root), runs one
workload in .bench_work/, and prints the binary's output. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; with --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.

Exits non-zero without printing a result when the sources are missing,
the build fails, the binary fails, or its metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "shoal_perfbench")
RUN_TIMEOUT_S = 170
# A first run builds, then runs: both together stay under 900 s.
BUILD_TIMEOUT_S = 600


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no SHOAL sources under {ROOT}; the benchmark builds them")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "shoal_perfbench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the run's output.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}, [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected, workloads = declared_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {workloads}")
    build()

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={WORK_DIR}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"shoal_perfbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"shoal_perfbench exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("shoal_perfbench printed no result line")
    printed = {name: row["unit"] for name, row in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(expected) & set(printed)
                       if expected[n] != printed[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, wrong unit {wrong}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
