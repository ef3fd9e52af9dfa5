#!/usr/bin/env python3
"""Check that the benchmark artefacts the docs rely on are committed.

Usage:
    tools/check_artifacts.py [--root DIR]

Two checks, run from the repository root (or --root DIR):

  * every `bench_results/<file>.json` path cited in README.md, DESIGN.md,
    EXPERIMENTS.md or docs/*.md exists (wildcards such as
    `bench_results/BENCH_*.json` are skipped);
  * every `--<name>-report` mode of tools/compare_benchmarks.py has its
    committed baseline, bench_results/BENCH_<name>.json.

Prints one line per problem and exits 1 when there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import sys

CITED = re.compile(r"bench_results/[A-Za-z0-9_.*-]+\.json")
REPORT_MODE = re.compile(r'"--([a-z]+)-report"')


def cited_paths(root: str) -> dict[str, set[str]]:
    """{cited bench_results path: documents citing it}."""
    documents = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    documents += sorted(
        os.path.relpath(path, root)
        for path in glob.glob(os.path.join(root, "docs", "**", "*.md"), recursive=True)
    )
    cited: dict[str, set[str]] = {}
    for document in documents:
        path = os.path.join(root, document)
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            for match in CITED.finditer(handle.read()):
                if "*" not in match.group(0):
                    cited.setdefault(match.group(0), set()).add(document)
    return cited


def report_baselines(root: str) -> list[str]:
    """The baseline each compare_benchmarks.py --*-report mode reads."""
    with open(os.path.join(root, "tools", "compare_benchmarks.py"), "r", encoding="utf-8") as handle:
        modes = sorted(set(REPORT_MODE.findall(handle.read())))
    return [f"bench_results/BENCH_{mode}.json" for mode in modes]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root (default: .)")
    args = parser.parse_args()

    problems = []
    for path, documents in sorted(cited_paths(args.root).items()):
        if not os.path.exists(os.path.join(args.root, path)):
            problems.append(f"{path}: cited in {', '.join(sorted(documents))} but not committed")
    for path in report_baselines(args.root):
        if not os.path.exists(os.path.join(args.root, path)):
            problems.append(f"{path}: compare_benchmarks.py has a report mode for it but no committed baseline")

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("ok: every cited benchmark artefact and report baseline is committed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
