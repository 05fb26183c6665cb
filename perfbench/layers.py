#!/usr/bin/env python3
"""Prints the per-layer table of every workload and the tracing overhead.

    python3 perfbench/layers.py [--seed 7] [--seconds N] [WORKLOAD ...]

Run from the repository root. For each named workload (default: those of
BENCHMARK.json) it makes one untraced and one traced run with the same seed,
prints the traced run's per-layer metrics side by side, and reports the
tracing overhead as the traced run's throughput relative to the untraced
run's.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    traced, overhead = {}, {}
    for name in names:
        plain = run_once(name, args.seed, seconds, 0)["metrics"]["throughput_kops"]["value"]
        res = run_once(name, args.seed, seconds, 1)
        traced[name] = res["metrics"]
        overhead[name] = 1 - res["metrics"]["traced_throughput_kops"]["value"] / plain
        print(f"{name}: untraced {plain:.4g} kops/s, traced "
              f"{res['metrics']['traced_throughput_kops']['value']:.4g} kops/s", flush=True)

    print("\n| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in bench["per_layer"]:
        cells = [f"{traced[n][m['name']]['value']:.4g}" for n in names]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    print("| tracing overhead | share | " +
          " | ".join(f"{overhead[n]:+.1%}" for n in names) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
