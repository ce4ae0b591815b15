#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics, and the
tracing overhead.

    python3 perfbench/steadiness.py --workload serve_zipf --runs 10 \
        [--first-seed 1] [--seconds S] [--overhead]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) and
prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. With --overhead it also makes a
traced run per seed and prints each end-to-end metric's median traced
value relative to the untraced one. Run from the repository root.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-2000:] + result.stderr[-2000:])
        sys.exit("seed %d failed with status %d" % (seed, result.returncode))
    return result.stdout


def table_value(output, name):
    """A metric from the printed table (traced runs print the end-to-end
    metrics there; their result line carries the per-layer ones)."""
    match = re.search(r"^  %s\s+(\S+)\s" % re.escape(name), output, re.M)
    return float(match.group(1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

    values = {name: [] for name in bounds}
    traced = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        output = run(args.workload, seed, seconds, 0)
        metrics = json.loads(output.strip().splitlines()[-1])["metrics"]
        for name in bounds:
            values[name].append(metrics[name]["value"])
        if args.overhead:
            output = run(args.workload, seed, seconds, 1)
            for name in bounds:
                traced[name].append(table_value(output, name))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, metrics[n]["value"]) for n in bounds)), flush=True)

    print("\n%-14s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, series in values.items():
        mid = statistics.median(series)
        if len(series) < 2:  # quartiles need two runs
            print("%-14s %14.6g" % (name, mid))
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        print("%-14s %14.6g %8.4f %8.2f%s" % (
            name, mid, spread, bounds[name],
            "" if spread < bounds[name] / 3 else "  <- above bound/3"))
    if args.overhead:
        print("\n%-14s %14s %14s %9s" % ("metric", "untraced", "traced",
                                           "traced/untraced"))
        for name in bounds:
            plain = statistics.median(values[name])
            with_spans = statistics.median(traced[name])
            print("%-14s %14.6g %14.6g %9.3f" % (name, plain, with_spans,
                                                  with_spans / plain))


if __name__ == "__main__":
    main()
