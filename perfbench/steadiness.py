#!/usr/bin/env python3
"""Checks that two separate sets of benchmark runs of one build agree.

    python3 perfbench/steadiness.py [--runs 10] [--seconds N] [--out FILE]

Run from the repository root. Each set runs every workload of BENCHMARK.json
--runs times, interleaving the workloads, each run with its own seed (the two
sets use different seeds). For each set it reports, per workload and
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median), the share of failed operations, and the host's
CPU steal read from /proc/stat over the set. The sets agree when every
spread except setup_s stays within the metric's bound, when no second-set
median is worse than the first by more than the bound, and when the failed
shares are equal. Exits 0 when they agree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else 0.0


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_set(bench, runs, seconds, seed_base):
    results = {w["name"]: [] for w in bench["workloads"]}
    start = cpu_times()
    for i in range(runs):
        for w in bench["workloads"]:
            seed = seed_base + i
            res = run_once(w["name"], seed, seconds)
            results[w["name"]].append(res)
            print(f"  {w['name']} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    steal = steal_share(start, cpu_times())
    out = {"steal": steal, "workloads": {}}
    for name, rs in results.items():
        out["workloads"][name] = {
            "failed_share": sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs),
            "correct": all(r["correct"] for r in rs),
            "metrics": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in rs])
                        for m in bench["end_to_end"]},
        }
    return out


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", help="write both sets' summaries here as JSON")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    sets = []
    for k, base in enumerate((1000, 2000)):
        print(f"set {k + 1}: {args.runs} runs x {len(bench['workloads'])} workloads, "
              f"{seconds} s each", flush=True)
        sets.append(run_set(bench, args.runs, seconds, base))

    agree = True
    print("\n| workload | metric | set 1 median [q1, q3] | spread | set 2 median [q1, q3] | spread "
          "| bound | 2nd vs 1st |\n|---|---|---|---|---|---|---|---|")
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            a = sets[0]["workloads"][name]["metrics"][m["name"]]
            b = sets[1]["workloads"][name]["metrics"][m["name"]]
            worse = worse_by(m, a["median"], b["median"])
            ok = worse <= m["bound"]
            if m["name"] != "setup_s":
                ok = ok and a["spread"] <= m["bound"] and b["spread"] <= m["bound"]
            agree = agree and ok
            print(f"| {name} | {m['name']} | {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] "
                  f"| {a['spread']:.3f} | {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                  f"| {b['spread']:.3f} | {m['bound']} | {worse:+.3f}{'' if ok else ' FAIL'} |")
        fa = sets[0]["workloads"][name]["failed_share"]
        fb = sets[1]["workloads"][name]["failed_share"]
        agree = agree and fa == fb and sets[0]["workloads"][name]["correct"] \
            and sets[1]["workloads"][name]["correct"]
        print(f"| {name} | failed share | {fa} | | {fb} | | equal | {'ok' if fa == fb else 'FAIL'} |")
    print(f"\nCPU steal over set 1: {100 * sets[0]['steal']:.1f} %, "
          f"set 2: {100 * sets[1]['steal']:.1f} %")
    print("the two sets agree within the bounds" if agree else "the two sets DISAGREE")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs": args.runs, "sets": sets}, f, indent=1)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
