#!/usr/bin/env python3
"""Unit tests of bench_compare.compare, the regression gate's verdict.

    python3 bench/bench_compare_test.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_compare import compare  # noqa: E402

BENCHMARK = {"end_to_end": [
    {"name": "verdict_s", "better": "lower", "bound": 0.25},
    {"name": "throughput_rps", "better": "higher", "bound": 0.25},
]}


def run(verdict_s, throughput_rps, correct=True):
    return {"exit": 0 if correct else 1, "correct": correct,
            "metrics": {"verdict_s": verdict_s, "throughput_rps": throughput_rps}}


def pairs(parent, change):
    """Three pairs; each side's values are scaled by 0.98, 1.00, 1.02."""
    return [{"parent": run(*(v * s for v in parent)),
             "change": run(*(v * s for v in change))}
            for s in (0.98, 1.0, 1.02)]


class CompareTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(compare(BENCHMARK, {"search": pairs((5, 10), (5, 10))}), [])

    def test_twofold_slowdown_fails_and_names_workload(self):
        runs = {"search": pairs((5, 10), (5, 10)),
                "bmc_sweep": pairs((3, 100), (6, 100))}
        failures = compare(BENCHMARK, runs)
        self.assertEqual(len(failures), 1)
        self.assertIn("bmc_sweep", failures[0])
        self.assertIn("verdict_s", failures[0])

    def test_higher_is_better_metric_judged_by_its_direction(self):
        more = compare(BENCHMARK, {"serve_mixed": pairs((1, 100), (1, 200))})
        self.assertEqual(more, [])
        fewer = compare(BENCHMARK, {"serve_mixed": pairs((1, 100), (1, 50))})
        self.assertEqual(len(fewer), 1)
        self.assertIn("throughput_rps", fewer[0])

    def test_incorrect_run_fails(self):
        runs = {"learn_fme": pairs((5, 10), (5, 10))}
        runs["learn_fme"][1]["change"] = run(5, 10, correct=False)
        failures = compare(BENCHMARK, runs)
        self.assertEqual(len(failures), 1)
        self.assertIn("learn_fme", failures[0])
        self.assertIn("change run 2 failed", failures[0])


if __name__ == "__main__":
    unittest.main()
