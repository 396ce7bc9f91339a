#!/usr/bin/env python3
"""A/B driver: run the benchmark on two source trees in alternating order.

    python3 perfbench/ab.py --run-a PARENT_TREE --run-b CHANGED_TREE \
        [--pairs 10] [--workloads serve-miss,serve-hot] [--seconds 12] [--seed 1]

Each tree is the root of a conquer checkout holding this perfbench
directory (the benchmark code must be identical on both sides; a
difference is reported).  Pair i runs every workload on both trees with
seed SEED+i; even pairs run A first, odd pairs B first.  For every
workload and end-to-end metric it prints each side's median and
quartiles and the number of pairs each side won (ties count for
neither), using the metric directions in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def digest(tree):
    h = hashlib.sha256()
    base = os.path.join(tree, "perfbench")
    for name in sorted(os.listdir(base)):
        path = os.path.join(base, name)
        if os.path.isfile(path):
            h.update(name.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run(tree, workload, seed, seconds):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed in %s (%s, seed %d, exit %d)" % (tree, workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect answers in %s (%s, seed %d)" % (tree, workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run-a", required=True, help="source tree of side A (the parent)")
    ap.add_argument("--run-b", required=True, help="source tree of side B (the change)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    trees = {"A": os.path.abspath(args.run_a), "B": os.path.abspath(args.run_b)}
    if digest(trees["A"]) != digest(trees["B"]):
        print("warning: the two trees hold different benchmark code", file=sys.stderr)

    results = {(side, w): [] for side in trees for w in workloads}
    for i in range(args.pairs):
        order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
        for w in workloads:
            for side in order:
                results[(side, w)].append(run(trees[side], w, args.seed + i, seconds))
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    print("%-15s %-9s %-27s %-27s %6s %6s %7s" %
          ("workload", "metric", "A q1/median/q3", "B q1/median/q3", "A won", "B won", "B/A"))
    for w in workloads:
        for metric in better:
            a = [r[metric] for r in results[("A", w)]]
            b = [r[metric] for r in results[("B", w)]]
            sign = 1 if better[metric] == "higher" else -1
            a_won = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
            b_won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            flag = ""
            if sign * (ratio - 1) < -bounds[metric]:
                flag = "  worse than bound"
            print("%-15s %-9s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %6d %6d %7.3f%s" %
                  (w, metric, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], a_won, b_won, ratio, flag))


if __name__ == "__main__":
    main()
