#!/usr/bin/env python3
"""Runs one workload repeatedly and reports each metric's steadiness.

    python3 perfbench/steady.py --workload serve --seeds 101-110 [--trace 0]

Each seed is one run of perfbench/run.py at BENCHMARK.json's run_seconds.
For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) /
median and, for end-to-end metrics, the bound and whether the spread is
within a third of it. It also prints the share of failed operations per
run. Results of every run are appended as JSON lines to
.bench_run/steady-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares = {}, []
    log_path = os.path.join(ROOT, ".bench_run", "steady-%s.jsonl" % args.workload)
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, done.returncode))
            continue
        result = json.loads(lines[-1])
        with open(log_path, "a") as log:
            log.write(json.dumps({"seed": seed, "result": result}) + "\n")
        shares.append(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("\n%-32s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                              "spread", "bound"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and args.trace == "0":
            verdict = "ok" if spread <= bound / 3 else (
                "WITHIN BOUND" if spread <= bound else "OVER BOUND")
        print("%-32s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, median, q1, q3, spread, "" if bound is None else bound, verdict))
    print("\nfailed share per run: %s" % sorted(set(shares)))


if __name__ == "__main__":
    sys.exit(main())
