#!/usr/bin/env python3
"""Steadiness check: runs one workload over several sets of seeds.

    python3 perfbench/steadiness.py --workload W --sets 101-110 201-210 \\
        [--seconds 30]

Run from the repository root. Each run is `run.py --trace 0` with its own
seed. Prints, as markdown, every run's end-to-end metrics, CPU-loop
calibration and CPU steal share, then per set the median and the spread of
each metric (the distance between the first and third quartile over the
median, as `statistics.quantiles(values, n=4)` gives them), the change of
each median against the first set in the metric's worse direction, and
the headroom left under the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("seed %d failed (%d): %s" % (seed, proc.returncode,
                                              proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    stamp_path = os.path.join(".bench_work", "%s-seed%d-trace0" % (
        workload, seed), "result.json")
    with open(stamp_path) as f:
        stamp = json.load(f)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return values, stamp["calibration_ms"], stamp["cpu_steal_share"]


def spread(values):
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--sets", nargs="+", required=True,
                        help="seed ranges FIRST-LAST, one per set")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    names = [m["name"] for m in metrics]

    print("### %s (--seconds %d)\n" % (args.workload, seconds))
    print("| set | seed | " + " | ".join(names) +
          " | calibration_ms before/after | CPU steal |")
    print("|---" * (len(names) + 4) + "|")
    sets = []
    for index, text in enumerate(args.sets, 1):
        runs = []
        for seed in seed_range(text):
            values, calibration, steal = one_run(args.workload, seed, seconds)
            runs.append(values)
            print("| %d | %d | %s | %.1f / %.1f | %.3f |" % (
                index, seed, " | ".join("%.4g" % values[n] for n in names),
                calibration["before"], calibration["after"], steal),
                flush=True)
        sets.append(runs)

    print("\n| metric | bound | " + " | ".join(
        "set %d median | set %d spread" % (i, i)
        for i in range(1, len(sets) + 1)) + " | worst median change | "
        "headroom |")
    print("|---" * (2 * len(sets) + 4) + "|")
    for m in metrics:
        name = m["name"]
        medians = [statistics.median(r[name] for r in runs) for runs in sets]
        spreads = [spread([r[name] for r in runs]) for runs in sets]
        sign = 1 if m["better"] == "lower" else -1
        changes = [sign * (med - medians[0]) / medians[0] if medians[0] else 0
                   for med in medians[1:]]
        worst_change = max(changes, default=0.0)
        # setup_s's spread is not held to the bound, only its median change.
        held = [worst_change] + ([] if name == "setup_s" else spreads)
        cells = " | ".join("%.4g | %.3f" % (med, sp)
                           for med, sp in zip(medians, spreads))
        print("| %s | %.2f | %s | %+.3f | %.3f |" % (
            name, m["bound"], cells, worst_change, m["bound"] - max(held)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
