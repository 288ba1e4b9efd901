#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and spread: the distance between the first and third quartile of
its values, as a share of their median, next to the metric's bound.

    python3 e2ebench/spread.py --workload scan --runs 10
    python3 e2ebench/spread.py --workload mine --runs 5 --first-seed 100

Run it from the repository root. Builds once, then runs the built binary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    command = bench["command"] + [
        "--workload", args.workload,
        "--seconds", str(bench["run_seconds"]),
        "--trace", args.trace,
    ]
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            command + ["--seed", str(seed)],
            check=True, capture_output=True, text=True,
        ).stdout.splitlines()
        result = json.loads(out[-1])
        host = next((l for l in out if l.startswith("# host")), "")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {host}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("  " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':24} {'median':>14} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            mark = " <-- over a third" if spread > bound / 3 else ""
        print(f"{name:24} {med:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}{mark}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
