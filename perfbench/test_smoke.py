#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny schedules (--smoke).

    python3 perfbench/test_smoke.py      # from the repository root

Builds on first use like run.py. Checks that every end-to-end and
per-layer metric is printed by name with its unit, that the oracle passes
every request of the seed workloads (ok_share 1.0), that the oracle
rejects a corrupted report, and that a daemon stopped mid-schedule shows
up as failed requests rather than as a crash of the benchmark.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracle  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("bbw_cold", "cutset_heavy", "daemon_edit_loop")


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, \
        proc.stdout


class SmokeTest(unittest.TestCase):

    def check_metrics(self, result, stdout, units):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), set(units))
        for name, unit in units.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIn(name, stdout)

    def test_end_to_end_metrics_and_ok_share(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, stdout = bench(workload, 0)
                self.assertEqual(code, 0, stdout)
                self.check_metrics(result, stdout, run.END_TO_END_UNITS)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_share"]["value"], 1.0)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, stdout = bench(workload, 1)
                self.assertEqual(code, 0, stdout)
                self.check_metrics(result, stdout, run.PER_LAYER_UNITS)
                metrics = result["metrics"]
                self.assertEqual(metrics["trace.cross_check_share"]["value"],
                                 1.0)
                self.assertGreaterEqual(
                    metrics["trace.attributed_share"]["value"], 0.9)

    def test_stopped_daemon_counts_as_failed_requests(self):
        code, result, stdout = bench("daemon_edit_loop", 0,
                                     "--stop-daemon-after", "5")
        self.assertIsNotNone(result, "the benchmark crashed")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 20)
        self.assertEqual(result["failed"], 15)
        self.assertEqual(result["metrics"]["ok_share"]["value"], 0.25)

    def test_oracle_rejects_corrupted_reports(self):
        corpus = os.path.join(run.ROOT, "tests", "openpsa", "and_or.xml")
        _, expected, _ = oracle.corpus_expectations(corpus)
        good = subprocess.run([run.FTSYNTH, "analyse", corpus],
                              capture_output=True, text=True).stdout
        section = oracle.parse_report(good)[0]
        self.assertEqual(oracle.check_top(section, expected), [])
        bad = good.replace("minimal cut sets: 2", "minimal cut sets: 3")
        self.assertNotEqual(
            oracle.check_top(oracle.parse_report(bad)[0], expected), [])


if __name__ == "__main__":
    run.build()
    unittest.main()
