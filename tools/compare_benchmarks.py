#!/usr/bin/env python3
"""Compare two google-benchmark JSON result files.

Usage:
    tools/compare_benchmarks.py BASELINE.json CANDIDATE.json
        [--threshold PCT] [--filter REGEX] [--metric METRIC]
    tools/compare_benchmarks.py --service-report RESULTS.json
        [--min-speedup X]
    tools/compare_benchmarks.py --bound-report RESULTS.json
        [--min-speedup X]

Pairs benchmark records by name (e.g. "BM_ZbddReplicated/6/4") and prints
one line per pair with the baseline time, the candidate time and the
relative change. Exits 1 when any matched benchmark regressed by more than
--threshold percent (default 20), 0 otherwise; benchmarks present in only
one file are listed but never fail the comparison, and two files with no
benchmark in common compare clean with a warning (a new suite simply has
no baseline yet).

--service-report reads ONE results file (bench_results/BENCH_service.json,
produced by bench/bench_service.cpp) and reports the daemon's warm-vs-cold
request latency per workload: every BM_Service<Workload>Cold* record is
read against its BM_Service<Workload>WarmDaemon counterpart, BBW
warm/cold-cache methodology. With --min-speedup X the report exits 1 when
any workload's ColdProcess/WarmDaemon ratio falls below X (the acceptance
bar runs it with --min-speedup 5).

Results are only meaningful between files produced the same way (same
machine class, Release build -- see tools/run_benchmarks.sh). The two-file
mode therefore exits 2 when both files stamp `cmake_build_type` or `nproc`
in their context block and the values differ; a file without the stamps
(baselines taken before run_benchmarks.sh stamped them) only draws a
warning. The files in bench_results/ are the committed baselines for
exactly this purpose:

    tools/run_benchmarks.sh bench_cutsets
    tools/compare_benchmarks.py bench_results/BENCH_cutsets.json \
        /tmp/new_cutsets.json --threshold 20
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def load_benchmarks(path: str, metric: str) -> dict[str, float]:
    """Returns {benchmark name: metric value}; aggregates keep only means."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    out: dict[str, float] = {}
    for record in data.get("benchmarks", []):
        # With repetitions google-benchmark emits per-repetition records plus
        # _mean/_median/_stddev aggregates; compare the mean when present.
        run_type = record.get("run_type", "iteration")
        if run_type == "aggregate" and record.get("aggregate_name") != "mean":
            continue
        name = record["name"]
        if run_type == "aggregate":
            name = name.rsplit("_", 1)[0]
        if metric not in record:
            continue
        out[name] = float(record[metric])
    return out


# Context stamps (tools/run_benchmarks.sh) that must match between a
# baseline and a candidate for their times to be comparable.
STAMPS = ("cmake_build_type", "nproc")


def contexts_match(baseline_path: str, candidate_path: str) -> bool:
    """False when both files stamp a STAMPS key with different values.

    A missing stamp warns instead: most committed baselines predate the
    stamping, and refusing them would retire every comparison at once.
    """
    contexts = []
    for path in (baseline_path, candidate_path):
        with open(path, "r", encoding="utf-8") as handle:
            contexts.append(json.load(handle).get("context", {}))
    ok = True
    for key in STAMPS:
        values = [context.get(key) for context in contexts]
        if None in values:
            missing = [p for p, v in zip((baseline_path, candidate_path), values) if v is None]
            print(
                f"warning: {key} not stamped in {', '.join(missing)}; "
                "cannot check the files were measured alike",
                file=sys.stderr,
            )
        elif str(values[0]) != str(values[1]):
            print(
                f"error: {key} differs (baseline {values[0]}, candidate "
                f"{values[1]}); re-take one side so both match",
                file=sys.stderr,
            )
            ok = False
    return ok


def service_report(path: str, metric: str, min_speedup: float) -> int:
    """Warm-vs-cold daemon latency from one BENCH_service.json file."""
    times = load_benchmarks(path, metric)
    pattern = re.compile(r"^BM_Service(.+?)(ColdProcess|ColdWithDiskCache|WarmDaemon)$")
    workloads: dict[str, dict[str, float]] = {}
    for name, value in times.items():
        match = pattern.match(name)
        if match:
            workloads.setdefault(match.group(1), {})[match.group(2)] = value

    pairs = {
        name: axes
        for name, axes in sorted(workloads.items())
        if "WarmDaemon" in axes and ("ColdProcess" in axes or "ColdWithDiskCache" in axes)
    }
    if not pairs:
        print(
            "error: no Cold*/WarmDaemon benchmark pairs in " + path,
            file=sys.stderr,
        )
        return 1

    width = max(len(name) for name in pairs)
    too_slow = []
    print(
        f"{'workload':<{width}}  {'cold ms':>10}  {'cold+disk ms':>13}  "
        f"{'warm ms':>10}  speedup"
    )
    for name, axes in pairs.items():
        warm = axes["WarmDaemon"]
        cold = axes.get("ColdProcess")
        disk = axes.get("ColdWithDiskCache")
        cold_text = f"{cold:>10.2f}" if cold is not None else f"{'-':>10}"
        disk_text = f"{disk:>13.2f}" if disk is not None else f"{'-':>13}"
        if cold is not None and warm > 0:
            speedup = cold / warm
            speedup_text = f"{speedup:>6.1f}x"
        else:
            speedup = None
            speedup_text = f"{'-':>7}"
        print(f"{name:<{width}}  {cold_text}  {disk_text}  {warm:>10.2f}  {speedup_text}")
        if speedup is not None and min_speedup > 0 and speedup < min_speedup:
            too_slow.append((name, speedup))

    if too_slow:
        print(
            f"\n{len(too_slow)} workload(s) below the {min_speedup:.0f}x "
            "warm-daemon bar:",
            file=sys.stderr,
        )
        for name, speedup in too_slow:
            print(f"  {name}: {speedup:.1f}x", file=sys.stderr)
        return 1
    if min_speedup > 0:
        print(f"\nok: every workload meets the {min_speedup:.0f}x warm-daemon bar")
    return 0


def prob_report(path: str, metric: str, min_speedup: float) -> int:
    """Cut-set-path vs diagram-path analyse latency from BENCH_prob.json.

    Pairs every BM_Analyse<Fixture>Cutsets record with its
    BM_Analyse<Fixture>Diagram counterpart. The truncated fixtures (where
    extraction dominates and the diagram path skips it) carry the
    --min-speedup bar; the Bbw pair is the honesty axis -- a clean run
    costs the same in both modes by construction -- and is report-only.
    """
    times = load_benchmarks(path, metric)
    pattern = re.compile(r"^BM_Analyse(.*?)(Cutsets|Diagram)$")
    fixtures: dict[str, dict[str, float]] = {}
    for name, value in times.items():
        match = pattern.match(name)
        if match:
            fixtures.setdefault(match.group(1) or "Truncated", {})[
                match.group(2)
            ] = value

    pairs = {
        name: axes
        for name, axes in sorted(fixtures.items())
        if "Cutsets" in axes and "Diagram" in axes
    }
    if not pairs:
        print(
            "error: no Cutsets/Diagram benchmark pairs in " + path,
            file=sys.stderr,
        )
        return 1

    width = max(len(name) for name in pairs)
    too_slow = []
    print(f"{'fixture':<{width}}  {'cutsets ms':>11}  {'diagram ms':>11}  speedup")
    for name, axes in pairs.items():
        cutsets = axes["Cutsets"]
        diagram = axes["Diagram"]
        speedup = cutsets / diagram if diagram > 0 else float("inf")
        honesty = name.startswith("Bbw")
        note = "  (honesty axis, ~1x expected)" if honesty else ""
        print(
            f"{name:<{width}}  {cutsets:>11.2f}  {diagram:>11.2f}  "
            f"{speedup:>6.1f}x{note}"
        )
        if not honesty and min_speedup > 0 and speedup < min_speedup:
            too_slow.append((name, speedup))

    if too_slow:
        print(
            f"\n{len(too_slow)} fixture(s) below the {min_speedup:.0f}x "
            "diagram-mode bar:",
            file=sys.stderr,
        )
        for name, speedup in too_slow:
            print(f"  {name}: {speedup:.1f}x", file=sys.stderr)
        return 1
    if min_speedup > 0:
        print(f"\nok: every truncated fixture meets the {min_speedup:.0f}x bar")
    return 0


def bound_report(path: str, metric: str, min_speedup: float) -> int:
    """Convergence-vs-time of the anytime bound engine from
    BENCH_bound.json (bench/bench_bound.cpp).

    Reads the BM_BoundFrontierConverge/E epsilon sweep (E = the epsilon
    exponent) and the BM_ZbddTenXNodeBudget run on the same adversarial
    tree, and gates on the acceptance counters: every bound point must be
    converged with interval width <= 1e-3 inside a 2000 ms wall budget,
    and the ZBDD run -- given ten times the bound engine's node budget --
    must come back truncated (if it ever stops truncating, the fixture no
    longer demonstrates the gap and needs regrowing). With --min-speedup X
    the tightest-epsilon bound run must additionally be at least X times
    faster than the truncated ZBDD run.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    records: dict[str, dict[str, float]] = {}
    for record in data.get("benchmarks", []):
        if record.get("run_type", "iteration") == "aggregate":
            continue
        records[record["name"]] = {
            key: float(value)
            for key, value in record.items()
            if isinstance(value, (int, float))
        }

    sweep = {
        int(m.group(1)): fields
        for name, fields in sorted(records.items())
        if (m := re.match(r"^BM_BoundFrontierConverge/(\d+)$", name))
    }
    zbdd = records.get("BM_ZbddTenXNodeBudget")
    if not sweep or zbdd is None:
        print(
            "error: no BM_BoundFrontierConverge/E sweep plus "
            "BM_ZbddTenXNodeBudget in " + path,
            file=sys.stderr,
        )
        return 1

    failures = []
    print(f"{'benchmark':<30}  {'time ms':>10}  {'width':>12}  converged")
    tightest = max(sweep)
    for exponent in sorted(sweep):
        fields = sweep[exponent]
        time_ms = fields.get(metric, 0.0)
        width = fields.get("width", float("inf"))
        converged = fields.get("converged", 0.0) == 1.0
        name = f"BM_BoundFrontierConverge/{exponent}"
        print(
            f"{name:<30}  {time_ms:>10.2f}  {width:>12.3e}  "
            f"{'yes' if converged else 'NO'}"
        )
        if not converged:
            failures.append(f"{name}: did not converge")
        if width > 1e-3:
            failures.append(f"{name}: width {width:.3e} above the 1e-3 bar")
        if time_ms > 2000.0:
            failures.append(f"{name}: {time_ms:.0f} ms over the 2 s budget")

    zbdd_ms = zbdd.get(metric, 0.0)
    truncated = zbdd.get("truncated", 0.0) == 1.0
    print(
        f"{'BM_ZbddTenXNodeBudget':<30}  {zbdd_ms:>10.2f}  {'-':>12}  "
        f"{'truncated' if truncated else 'COMPLETED'}"
    )
    if not truncated:
        failures.append(
            "BM_ZbddTenXNodeBudget: completed at 10x the node budget; the "
            "fixture no longer demonstrates the exact-engine gap"
        )
    bound_ms = sweep[tightest].get(metric, 0.0)
    if min_speedup > 0 and bound_ms > 0:
        speedup = zbdd_ms / bound_ms
        print(
            f"\ntightest epsilon vs truncated zbdd: {speedup:.1f}x "
            f"({zbdd_ms:.1f} ms / {bound_ms:.2f} ms)"
        )
        if speedup < min_speedup:
            failures.append(
                f"bound engine only {speedup:.1f}x faster than the "
                f"truncated zbdd run (bar: {min_speedup:.0f}x)"
            )

    if failures:
        print(f"\n{len(failures)} bound-engine check(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nok: certified interval within width and time budget; "
          "zbdd truncates at 10x the node budget")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two google-benchmark JSON files."
    )
    parser.add_argument(
        "baseline", nargs="?", help="committed reference JSON"
    )
    parser.add_argument(
        "candidate", nargs="?", help="freshly measured JSON"
    )
    parser.add_argument(
        "--service-report",
        metavar="RESULTS",
        help="report daemon warm-vs-cold latency from one "
        "BENCH_service.json instead of diffing two files",
    )
    parser.add_argument(
        "--prob-report",
        metavar="RESULTS",
        help="report cut-set-path vs diagram-path analyse latency from one "
        "BENCH_prob.json instead of diffing two files",
    )
    parser.add_argument(
        "--bound-report",
        metavar="RESULTS",
        help="report anytime-bound convergence vs the truncated ZBDD run "
        "from one BENCH_bound.json instead of diffing two files",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        metavar="X",
        help="with --service-report (--prob-report, --bound-report): fail "
        "when any workload's cold/warm (cutsets/diagram, zbdd/bound) ratio "
        "is below X (default: report only)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=20.0,
        metavar="PCT",
        help="fail when a benchmark slows down by more than PCT%% "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--filter",
        default="",
        metavar="REGEX",
        help="only compare benchmarks whose name matches REGEX",
    )
    parser.add_argument(
        "--metric",
        default="real_time",
        choices=["real_time", "cpu_time"],
        help="which per-iteration time to compare (default: %(default)s)",
    )
    args = parser.parse_args()

    if args.service_report:
        return service_report(args.service_report, args.metric, args.min_speedup)
    if args.prob_report:
        return prob_report(args.prob_report, args.metric, args.min_speedup)
    if args.bound_report:
        return bound_report(args.bound_report, args.metric, args.min_speedup)
    if args.baseline is None or args.candidate is None:
        parser.error(
            "BASELINE and CANDIDATE are required unless "
            "--service-report/--prob-report/--bound-report"
        )

    if not contexts_match(args.baseline, args.candidate):
        return 2
    baseline = load_benchmarks(args.baseline, args.metric)
    candidate = load_benchmarks(args.candidate, args.metric)
    if args.filter:
        pattern = re.compile(args.filter)
        baseline = {k: v for k, v in baseline.items() if pattern.search(k)}
        candidate = {k: v for k, v in candidate.items() if pattern.search(k)}

    shared = sorted(set(baseline) & set(candidate))
    if not shared:
        # A brand-new benchmark suite has no committed baseline yet (and a
        # retired one no candidate). That is routine, not an error: warn,
        # list the one-sided names, and let the comparison pass so adding a
        # bench_*.cpp never breaks CI by itself.
        print(
            "warning: no benchmarks in common; nothing to compare",
            file=sys.stderr,
        )
        for name in sorted(set(baseline) | set(candidate)):
            side = "baseline" if name in baseline else "candidate"
            print(f"  {name}: only in {side} (skipped)", file=sys.stderr)
        return 0

    width = max(len(name) for name in shared)
    regressions = []
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  change")
    for name in shared:
        base = baseline[name]
        cand = candidate[name]
        change = (cand / base - 1.0) * 100.0 if base > 0 else 0.0
        flag = ""
        if change > args.threshold:
            flag = "  REGRESSED"
            regressions.append((name, change))
        print(
            f"{name:<{width}}  {base:>12.1f}  {cand:>12.1f}  "
            f"{change:+7.1f}%{flag}"
        )

    for name in sorted(set(baseline) ^ set(candidate)):
        side = "baseline" if name in baseline else "candidate"
        print(f"{name}: only in {side} (skipped)")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond "
            f"{args.threshold:.0f}%:",
            file=sys.stderr,
        )
        for name, change in regressions:
            print(f"  {name}: {change:+.1f}%", file=sys.stderr)
        return 1
    print(f"\nok: no regression beyond {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
