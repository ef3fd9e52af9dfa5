#!/usr/bin/env python3
"""Compares two benchmark result stamps (.bench_work/<run>/result.json).

    python3 perfbench/compare.py BASE.json CHANGE.json

Refuses (exit 2) when the two runs did not measure the same thing: another
workload, other input bytes (the content-hash manifest of the generated
inputs), another request count or tail percentile (another --seconds), a
non-Release build or another core count. Otherwise prints each
metric of both runs with the change's ratio to the base, and both runs'
CPU-loop calibration readings and CPU steal shares so machine drift and
host contention can be told apart from a program change. Both are
reported, never used to scale a metric.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        change = json.load(f)
    refusals = []
    for key in ("workload", "trace", "input_manifest", "nproc", "requests",
                "tail_percentile"):
        if base.get(key) != change.get(key):
            refusals.append("%s differs: %r vs %r" %
                            (key, base.get(key), change.get(key)))
    for name, run in (("base", base), ("change", change)):
        if run.get("cmake_build_type") != "Release":
            refusals.append("%s is not a Release build" % name)
    if refusals:
        for line in refusals:
            print("refused:", line, file=sys.stderr)
        return 2
    print("%-36s %14s %14s %8s" % ("metric", "base", "change", "ratio"))
    for name, metric in base["metrics"].items():
        b = metric["value"]
        c = change["metrics"][name]["value"]
        ratio = c / b if b else float("nan")
        print("%-36s %14.4f %14.4f %8.3f %s" % (name, b, c, ratio,
                                               metric["unit"]))
    for name, run in (("base", base), ("change", change)):
        cal = run["calibration_ms"]
        print("calibration %-6s before %.2f ms, after %.2f ms, CPU steal "
              "%.3f (sha %s)" % (name, cal["before"], cal["after"],
                                 run.get("cpu_steal_share", 0.0),
                                 run.get("git_sha") or
                                 run["source_sha256"][:12]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
