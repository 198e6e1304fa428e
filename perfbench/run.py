#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dlsched checkout.  The harness is built with
CMake into `.bench_build/` (Release; the first run compiles the library,
later runs are incremental), runs in `.bench_run/`, and prints as its last
stdout line one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is nonzero when the build fails, the sources are missing or
an output check fails.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = ".bench_run"
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("grid_solve", "grid_cluster", "serve_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def latency_limit_ms():
    """The serve_mix p99 limit, fixed once in BENCHMARK.json's reason."""
    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    for workload in spec.get("workloads", []):
        if workload.get("name") == "serve_mix":
            match = re.search(r"p99 <= ([0-9.]+) ms", workload.get("why", ""))
            if match:
                return match.group(1)
    fail("BENCHMARK.json states no 'p99 <= L ms' limit for serve_mix")


def source_digest():
    """A content hash of src/ and the build file: the run's commit stamp
    (a checkout need not be a git repository)."""
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for base, dirs, files in os.walk("src"):
        dirs.sort()
        paths.extend(os.path.join(base, name) for name in sorted(files))
    for path in paths:
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a dlsched checkout (no src/ here)")
    limit = latency_limit_ms()
    build()
    command = [
        HARNESS, "run", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--scratch", os.path.join(RUN_DIR, args.workload),
        "--latency-limit-ms", limit, "--commit", source_digest(),
    ]
    # The harness leads its own process group, so a timeout also stops the
    # daemon and the cluster workers it started.
    with subprocess.Popen(command, start_new_session=True) as harness:
        try:
            code = harness.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(harness.pid, signal.SIGKILL)
            harness.wait()
            fail("harness timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
