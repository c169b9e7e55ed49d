#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]

Run from the root of the checkout. For every workload of BENCHMARK.json it
runs the benchmark command --runs times per set, each run with its own
seed, alternating between the sets. For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median. A metric is steady when
its spread stays below a third of its bound (setup_s is exempt from the
spread rule). With two sets it also checks that the second set's median is
not worse than the first's by more than the bound. Exits 1 when any check
fails. The raw figures go to .bench_build/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("steady: %s exited %d" % (" ".join(cmd),
                                                     proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("steady: %s seed %d reported incorrect output"
                         % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    raw = {}
    ok = True
    for workload in workloads:
        sets = [[] for _ in range(args.sets)]
        for k in range(args.runs):
            for s in range(args.sets):
                seed = args.seed_base + 100 * s + k
                sets[s].append(run_once(bench, workload, seed))
                print("steady: %s set %d run %d done" % (workload, s + 1, k + 1),
                      file=sys.stderr, flush=True)
        raw[workload] = sets
        print("\n%s (%d runs per set)" % (workload, args.runs))
        print("  %-20s %4s %14s %14s %14s %8s %6s %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            medians = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r[name] for r in runs])
                medians.append(med)
                steady = name == "setup_s" or spread <= metric["bound"] / 3
                verdict = "ok" if steady else "SPREAD"
                if s == 1:
                    drift = worse(metric, medians[0], med)
                    if drift > metric["bound"]:
                        verdict += " DRIFT %+.3f" % drift
                        steady = False
                    else:
                        verdict += " drift %+.3f" % drift
                ok = ok and steady
                print("  %-20s %4d %14.6g %14.6g %14.6g %8.4f %6.3f %s" % (
                    name, s + 1, med, q1, q3, spread, metric["bound"], verdict))
    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
