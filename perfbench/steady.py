#!/usr/bin/env python3
"""Steadiness check for the benchmark, and its smoke test.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
    python3 perfbench/steady.py --smoke

Runs `--sets` sets of `--runs` runs of every workload (run i of every set
uses seed i) with the command, run length and bounds of BENCHMARK.json,
then prints per workload and end-to-end metric each set's median and
quartiles, the spread (Q3 - Q1) / median, and whether

  spread  every set's spread is within the metric's bound;
  agree   no later set's median is worse than the first set's by more
          than the bound;
  fail%   the share of failed operations is the same in every set.

It exits non-zero when any of these fails. --smoke instead runs every
workload once for 2 seconds in both trace modes, and once with a
deliberately corrupted reply, which must make the run report
correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def run_once(workload, seed, trace, seconds=BENCH["run_seconds"], extra=()):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return res.returncode, result, res.stderr


def smoke():
    ok = True
    seconds = 2
    for w in BENCH["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = run_once(w["name"], 1, trace, seconds)
            names = {m["name"] for m in BENCH[key]}
            good = (rc == 0 and result is not None and result["correct"]
                    and result["failed"] == 0
                    and set(result["metrics"]) == names)
            ok &= good
            print("%-4s %-14s trace=%d attempted=%s" % (
                "ok" if good else "FAIL", w["name"], trace,
                result and result["attempted"]))
            if not good:
                print(err[-2000:])
    for w in BENCH["workloads"]:
        rc, result, _ = run_once(w["name"], 1, 0, seconds,
                                 ["--inject-corruption"])
        good = rc != 0 and result is not None and not result["correct"]
        ok &= good
        print("%-4s %-14s corrupted reply makes the run fail" % (
            "ok" if good else "FAIL", w["name"]))
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    d = (later - first) / abs(first)
    return d if better == "lower" else -d


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCH["workloads"]))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.smoke:
        return smoke()

    workloads = args.workloads.split(",")
    # results[workload][set] = list of run results
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = i + 1
                rc, result, err = run_once(w, seed, 0)
                if result is None:
                    print("run failed: %s seed %d rc %d\n%s"
                          % (w, seed, rc, err[-2000:]), file=sys.stderr)
                    return 1
                results[w][s].append(result)
                print("set %d %s seed %d: %s" % (
                    s + 1, w, seed, " ".join(
                        "%s=%.6g" % (k, v["value"])
                        for k, v in result["metrics"].items())),
                    file=sys.stderr, flush=True)
    ok = True
    print("%-14s %-15s %6s | %-32s | %-32s | %6s %6s" % (
        "workload", "metric", "bound", "set 1: median [Q1, Q3] spread",
        "set 2: median [Q1, Q3] spread", "spread", "agree"))
    for w in workloads:
        shares = {(sum(r["failed"] for r in runs),
                   sum(r["attempted"] for r in runs))
                  for runs in results[w]}
        fail_same = len({f / a for f, a in shares}) == 1
        ok &= fail_same
        for m in BENCH["end_to_end"]:
            cells, spread_ok, agree = [], True, True
            medians = []
            for runs in results[w]:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                cells.append("%.5g [%.5g, %.5g] %.3f" % (med, q1, q3, spread))
                if spread > m["bound"]:
                    spread_ok = False
            for med in medians[1:]:
                if worse_by(medians[0], med, m["better"]) > m["bound"]:
                    agree = False
            ok &= spread_ok and agree
            print("%-14s %-15s %6.3f | %s | %6s %6s" % (
                w, m["name"], m["bound"], " | ".join(cells),
                "ok" if spread_ok else "WIDE", "ok" if agree else "NO"))
        print("%-14s failed share identical in every set: %s" % (
            w, "yes" if fail_same else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
