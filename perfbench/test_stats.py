"""Tests of the benchmark's own statistics and comparison helper.

    python3 perfbench/test_stats.py
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [12.0, 10.0, 11.0, 15.0, 9.0, 13.0, 14.0, 10.5, 11.5, 12.5]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_single_value_has_zero_spread(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))
        self.assertEqual(stats.spread([5.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


class PercentileSupport(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(list(range(100)), 90), 10)
        self.assertEqual(stats.supported_percentile(list(range(100)), 90), 89)
        self.assertIsNone(stats.supported_percentile(list(range(99)), 90))
        self.assertIsNone(stats.supported_percentile(list(range(30)), 90))

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        values = [1.0] * 95 + [2.0] * 5 + [3.0] * 10
        self.assertEqual(stats.samples_beyond(values, 90), 10)
        self.assertEqual(stats.supported_percentile(values, 90), 2.0)
        self.assertIsNone(stats.supported_percentile([1.0] * 200, 90))

    def test_empty_is_unsupported(self):
        self.assertIsNone(stats.supported_percentile([], 90))


class FailRatio(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.fail_ratio(0, 40), 0.0)
        self.assertEqual(stats.fail_ratio(3, 12), 0.25)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(stats.fail_ratio(0, 0), 1.0)


class Verdict(unittest.TestCase):
    def test_unchanged_within_bound(self):
        base = [100, 101, 99, 100, 102]
        new = [103, 102, 104, 103, 101]
        self.assertEqual(stats.verdict(base, new, "lower", 0.1), "unchanged")

    def test_regressed_and_improved(self):
        base = [100, 101, 99, 100, 102]
        self.assertEqual(
            stats.verdict(base, [120, 121, 119, 122, 120], "lower", 0.1),
            "regressed")
        self.assertEqual(
            stats.verdict(base, [80, 81, 79, 80, 82], "lower", 0.1),
            "improved")
        self.assertEqual(
            stats.verdict(base, [80, 81, 79, 80, 82], "higher", 0.1),
            "regressed")

    def test_wide_spread_is_unresolved_not_unchanged(self):
        base = [100, 60, 140, 100, 80, 120]
        new = [101, 61, 141, 99, 79, 121]
        self.assertEqual(stats.verdict(base, new, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base = [200, 300, 250, 280]
        new = [100, 150, 120, 140]
        self.assertEqual(stats.verdict(base, new, "lower", 0.1), "improved")


class CompareHelper(unittest.TestCase):
    def write_results(self, directory, name, op_values):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            for seed, value in enumerate(op_values):
                f.write(json.dumps({
                    "workload": "cut-ag", "seed": seed, "trace": 0,
                    "correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}},
                }) + "\n")
                # Traced runs are not end-to-end results and are skipped.
                f.write(json.dumps({
                    "workload": "cut-ag", "seed": seed, "trace": 1,
                    "correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"core.cut_ms": {"value": 1, "unit": "ms"}},
                }) + "\n")
        return path

    def test_rows_per_workload_and_metric(self):
        bench = {"end_to_end": [{"name": "op_p50_ms", "unit": "ms",
                                 "better": "lower", "bound": 0.1}]}
        with tempfile.TemporaryDirectory() as d:
            a = self.write_results(d, "a.jsonl", [100, 101, 99, 100])
            b = self.write_results(d, "b.jsonl", [130, 131, 129, 130])
            rows = compare.compare(compare.load_results(a),
                                   compare.load_results(b), bench)
        self.assertEqual(len(rows), 1)
        row = rows[0]
        self.assertEqual((row["workload"], row["metric"]),
                         ("cut-ag", "op_p50_ms"))
        self.assertEqual(row["verdict"], "regressed")
        self.assertEqual(row["a"]["n"], 4)
        self.assertAlmostEqual(row["a"]["median"], 100.0)

    def test_command_line_prints_one_row(self):
        bench = {"end_to_end": [{"name": "op_p50_ms", "unit": "ms",
                                 "better": "lower", "bound": 0.1}]}
        with tempfile.TemporaryDirectory() as d:
            a = self.write_results(d, "a.jsonl", [100, 140, 60, 100])
            b = self.write_results(d, "b.jsonl", [100, 141, 61, 99])
            bench_path = os.path.join(d, "BENCHMARK.json")
            with open(bench_path, "w") as f:
                json.dump(bench, f)
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), a, b,
                 "--benchmark", bench_path],
                capture_output=True, text=True, check=True).stdout
        rows = [line for line in out.splitlines() if "cut-ag" in line]
        self.assertEqual(len(rows), 1)
        self.assertIn("unresolved", rows[0])


if __name__ == "__main__":
    unittest.main()
