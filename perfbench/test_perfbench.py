#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, through
perfbench/run.py (which builds the binary first), and checks that:
  * the result line names every metric of BENCHMARK.json, with its unit;
  * nothing failed (failed_frac is 0) and the trace file is Chrome
    trace-event JSON;
  * a deliberately corrupted reference is counted as a failure.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run(workload, trace, *extra):
    """Returns (exit code, parsed result line, full stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", trace, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output; stderr:\n" + proc.stderr)
    return proc.returncode, json.loads(lines[-1]), proc.stdout


class TinyRuns(unittest.TestCase):
    def assert_metrics(self, result, specs):
        units = {m["name"]: m["unit"] for m in specs}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, unit in units.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float), name)

    def assert_clean(self, code, result):
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, stdout = run(workload, "0")
                self.assert_clean(code, result)
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertRegex(stdout, r"failed_frac\s+0 frac")

    def test_per_layer_metrics_and_trace_file(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run(workload, "1")
                self.assert_clean(code, result)
                self.assert_metrics(result, SPEC["per_layer"])
                trace = os.path.join(ROOT, ".bench_build",
                                     "trace_%s_%d.json" % (workload, SEED))
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                self.assertGreater(len(events), 0)
                for event in events[:50]:
                    self.assertEqual(event["ph"], "X")
                    self.assertGreaterEqual(event["dur"], 0)

    def test_corrupted_reference_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run(workload, "0", "--corrupt-reference")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
