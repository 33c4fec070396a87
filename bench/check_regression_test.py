#!/usr/bin/env python3
"""Unit tests for check_regression.py's failure reporting.

Run directly (``python3 bench/check_regression_test.py``) or via ctest
(registered as ``check_regression_py``). The cases pin the contract that
a missing or unreadable results file, and a gated benchmark name absent
from its results file, produce clear single-line failures naming the
benchmark and the file — never a raw KeyError/FileNotFoundError
traceback — and that deterministic counters gate exactly.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_regression.py")


def bench_json(**times_ns):
    return {
        "benchmarks": [
            {"name": name, "real_time": float(t), "run_type": "iteration"}
            for name, t in times_ns.items()
        ]
    }


class CheckRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_check(self, baseline, results):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baseline", baseline] + results,
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def baseline(self, ratios, tolerance=0.25, counters=None):
        payload = {"tolerance": tolerance, "ratios": ratios}
        if counters is not None:
            payload["counters"] = counters
        return self.write("baseline.json", payload)

    def counter_baseline(self, expected=4719):
        return self.baseline([], counters=[{
            "name": "demo-builds", "file": "BENCH_demo.json",
            "benchmark": "BM_Enum", "counter": "liveness_builds",
            "expected": expected,
        }])

    def counter_results(self, *values):
        # One row per repetition, each carrying the user counter.
        rows = [{"name": "BM_Enum", "real_time": 100.0,
                 "run_type": "iteration", "liveness_builds": float(v)}
                for v in values]
        return self.write("BENCH_demo.json", {"benchmarks": rows})

    def test_passing_ratio(self):
        base = self.baseline([{
            "name": "demo-speedup", "file": "BENCH_demo.json",
            "numerator": "BM_Slow", "denominator": "BM_Fast",
            "baseline": 2.0,
        }])
        res = self.write("BENCH_demo.json", bench_json(BM_Slow=200, BM_Fast=100))
        code, out = self.run_check(base, [res])
        self.assertEqual(code, 0, out)
        self.assertIn("PASS demo-speedup", out)

    def test_regressed_ratio_fails(self):
        base = self.baseline([{
            "name": "demo-speedup", "file": "BENCH_demo.json",
            "numerator": "BM_Slow", "denominator": "BM_Fast",
            "baseline": 2.0,
        }])
        res = self.write("BENCH_demo.json", bench_json(BM_Slow=110, BM_Fast=100))
        code, out = self.run_check(base, [res])
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_benchmark_missing_from_named_file(self):
        # The gated name is absent from the results file that the baseline
        # entry says should contain it: the message must name both.
        base = self.baseline([{
            "name": "demo-speedup", "file": "BENCH_demo.json",
            "numerator": "BM_Slow", "denominator": "BM_Renamed",
            "baseline": 2.0,
        }])
        res = self.write("BENCH_demo.json", bench_json(BM_Slow=200, BM_Fast=100))
        code, out = self.run_check(base, [res])
        self.assertEqual(code, 1, out)
        self.assertIn("benchmark 'BM_Renamed' missing from BENCH_demo.json",
                      out)
        self.assertNotIn("Traceback", out)

    def test_results_file_not_supplied(self):
        base = self.baseline([{
            "name": "demo-speedup", "file": "BENCH_absent.json",
            "numerator": "BM_Slow", "denominator": "BM_Fast",
            "baseline": 2.0,
        }])
        res = self.write("BENCH_other.json", bench_json(BM_Other=1))
        code, out = self.run_check(base, [res])
        self.assertEqual(code, 1, out)
        self.assertIn("missing from BENCH_absent.json", out)
        self.assertIn("not supplied or did not parse", out)
        self.assertNotIn("Traceback", out)

    def test_unreadable_results_file(self):
        base = self.baseline([{
            "name": "demo-speedup", "file": "BENCH_demo.json",
            "numerator": "BM_Slow", "denominator": "BM_Fast",
            "baseline": 2.0,
        }])
        gone = os.path.join(self.tmp.name, "BENCH_demo.json")  # never written
        code, out = self.run_check(base, [gone])
        self.assertEqual(code, 1, out)
        self.assertIn("cannot read results file", out)
        self.assertNotIn("Traceback", out)

    def test_invalid_json_results_file(self):
        base = self.baseline([{
            "name": "demo-speedup", "file": "BENCH_demo.json",
            "numerator": "BM_Slow", "denominator": "BM_Fast",
            "baseline": 2.0,
        }])
        res = self.write("BENCH_demo.json", "{not json")
        code, out = self.run_check(base, [res])
        self.assertEqual(code, 1, out)
        self.assertIn("not valid google-benchmark JSON", out)
        self.assertNotIn("Traceback", out)

    def test_min_cores_skip_still_reports(self):
        base = self.baseline([{
            "name": "wide-speedup", "file": "BENCH_demo.json",
            "numerator": "BM_Slow", "denominator": "BM_Fast",
            "baseline": 2.0, "min_cores": 4096,
        }])
        res = self.write("BENCH_demo.json", bench_json(BM_Slow=200, BM_Fast=100))
        code, out = self.run_check(base, [res])
        self.assertEqual(code, 0, out)
        self.assertIn("SKIP wide-speedup", out)

    def test_aggregate_rows_ignored(self):
        base = self.baseline([{
            "name": "demo-speedup", "file": "BENCH_demo.json",
            "numerator": "BM_Slow", "denominator": "BM_Fast",
            "baseline": 2.0,
        }])
        payload = bench_json(BM_Slow=200, BM_Fast=100)
        payload["benchmarks"].append(
            {"name": "BM_Fast", "real_time": 9999.0, "run_type": "aggregate"})
        res = self.write("BENCH_demo.json", payload)
        code, out = self.run_check(base, [res])
        self.assertEqual(code, 0, out)

    def test_exact_counter_passes(self):
        code, out = self.run_check(self.counter_baseline(),
                                   [self.counter_results(4719, 4719)])
        self.assertEqual(code, 0, out)
        self.assertIn("PASS demo-builds", out)

    def test_counter_gates_both_directions(self):
        # Fewer builds is a change too: the committed value must be
        # updated deliberately, never drift.
        for value in (4720, 4718):
            code, out = self.run_check(self.counter_baseline(),
                                       [self.counter_results(value)])
            self.assertEqual(code, 1, out)
            self.assertIn("FAIL demo-builds", out)
            self.assertIn("expected exactly 4719", out)

    def test_counter_checks_every_repetition(self):
        code, out = self.run_check(self.counter_baseline(),
                                   [self.counter_results(4719, 4800)])
        self.assertEqual(code, 1, out)
        self.assertIn("measured 4800", out)

    def test_counter_absent_from_row(self):
        res = self.write("BENCH_demo.json", bench_json(BM_Enum=100))
        code, out = self.run_check(self.counter_baseline(), [res])
        self.assertEqual(code, 1, out)
        self.assertIn("reports no counter 'liveness_builds'", out)
        self.assertNotIn("Traceback", out)

    def test_counter_benchmark_missing(self):
        res = self.write("BENCH_demo.json", bench_json(BM_Other=100))
        code, out = self.run_check(self.counter_baseline(), [res])
        self.assertEqual(code, 1, out)
        self.assertIn("benchmark 'BM_Enum' missing from BENCH_demo.json", out)
        self.assertNotIn("Traceback", out)

    def test_repo_baseline_is_well_formed(self):
        # The committed baseline file parses and every entry carries the
        # fields the checker and the CI wiring rely on.
        repo_baseline = os.path.join(os.path.dirname(SCRIPT),
                                     "baseline_ratios.json")
        with open(repo_baseline) as f:
            data = json.load(f)
        self.assertGreaterEqual(float(data["tolerance"]), 0.0)
        for r in data["ratios"]:
            for field in ("name", "file", "numerator", "denominator",
                          "baseline"):
                self.assertIn(field, r, r.get("name", "<unnamed>"))
        for c in data.get("counters", []):
            for field in ("name", "file", "benchmark", "counter", "expected",
                          "provenance"):
                self.assertIn(field, c, c.get("name", "<unnamed>"))
            self.assertIsInstance(c["expected"], int, c["name"])


if __name__ == "__main__":
    unittest.main()
