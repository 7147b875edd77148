#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload of BENCHMARK.json several times, each with another
seed, and prints for every end-to-end metric the median, the quartiles and
the spread (third minus first quartile, as a share of the median) next to
the metric's bound.  A spread above a third of its bound is flagged.

With --sets 2 or more, the same seeds are run again as a further set, and
each metric's median is compared with the first set's: a change beyond the
metric's bound in its worse direction, or a different share of failed
operations, is flagged.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--sets 1] [WORKLOAD ...]

Run from the root of a Galley checkout.  Exits 1 if anything was flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(bench, name, seeds):
    """One set: a run per seed.  Prints its table; returns (steady, medians, failed share)."""
    results = [run_once(bench["command"], name, seed, bench["run_seconds"])
               for seed in seeds]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    steady = len(shares) == 1
    print(f"{name}: {len(seeds)} runs, {failed} of {attempted} operations failed, "
          f"failed share per run {shares}, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>7}")
    medians = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[metric["name"]] = med
        spread = (q3 - q1) / med
        flag = ""
        if spread > metric["bound"] / 3:
            flag = "  above a third of the bound"
            if metric["name"] != "setup_s":
                steady = False
        print(f"  {metric['name']:<14} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.3f} {metric['bound']:7.3f}{flag}")
    return steady, medians, shares


def compare_sets(bench, name, first, later, k):
    """Print each median of set k against set 1; returns False on a flag."""
    ok = True
    print(f"{name}: set {k} against set 1")
    print(f"  {'metric':<14} {'set 1':>12} {'set ' + str(k):>12} "
          f"{'change':>8} {'worse by':>9} {'bound':>7}")
    for metric in bench["end_to_end"]:
        a, b = first[metric["name"]], later[metric["name"]]
        change = (b - a) / a
        worse = change if metric["better"] == "lower" else -change
        flag = ""
        if worse > metric["bound"]:
            flag = "  worse than the bound"
            ok = False
        print(f"  {metric['name']:<14} {a:12.4f} {b:12.4f} {change:+8.3f} "
              f"{max(worse, 0.0):9.3f} {metric['bound']:7.3f}{flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    steady = True
    for name in names:
        sets = []
        for k in range(1, args.sets + 1):
            if args.sets > 1:
                print(f"-- set {k}")
            set_steady, medians, shares = run_set(bench, name, seeds)
            steady = steady and set_steady
            sets.append((medians, shares))
        for k, (medians, shares) in enumerate(sets[1:], start=2):
            steady = compare_sets(bench, name, sets[0][0], medians, k) and steady
            if shares != sets[0][1]:
                print(f"  failed share differs: set 1 {sets[0][1]}, set {k} {shares}")
                steady = False
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
