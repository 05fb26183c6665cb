#!/usr/bin/env python3
"""Builds the hykv end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run configures and compiles
../src and the benchmark, later runs only check that the build is current.
Before each measured run the oracle's self-test runs; a failing self-test
stops the benchmark. The last line of stdout is the benchmark's result JSON.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "testbed.hpp")):
        log(f"hykv sources not found under {os.path.join(ROOT, 'src')}")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_child(cmd):
    """Runs cmd with a deadline; returns (returncode, stdout text)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        log(f"timed out after {TIMEOUT_S} s: {' '.join(cmd)}")
        return 1, ""
    return child.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--load-threads", type=int, default=1)
    args = parser.parse_args()

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))),
        "perfbench")
    if not build(build_dir):
        return 1

    code, out = run_child([os.path.join(build_dir, "oracle_selftest")])
    if code != 0:
        sys.stderr.write(out)
        log("oracle self-test failed")
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", trace_dir, "--load-threads", str(args.load_threads),
           "--spawn-ns", str(time.monotonic_ns())]
    code, out = run_child(cmd)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
