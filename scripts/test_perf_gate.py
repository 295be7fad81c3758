#!/usr/bin/env python3
"""Tests of the perf gate's decision on canned benchmark results.

Run from anywhere:  python3 scripts/test_perf_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

SPECS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "lane_records_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.24},
]


def runs(wall_s, rate, correct=True):
    """One passing run per (wall_s, lane_records_per_s) pair."""
    return [{"error": None, "correct": correct,
             "metrics": {"wall_s": w, "lane_records_per_s": r}}
            for w, r in zip(wall_s, rate)]


BASE = runs([10.0, 10.2, 9.8, 10.1, 9.9], [100.0, 98.0, 102.0, 99.0, 101.0])


def verdicts(rows):
    return {r["metric"]: r["verdict"] for r in rows}


class DecideTest(unittest.TestCase):
    def test_equal_runs_pass(self):
        rows, failures = perf_gate.decide(SPECS, "w", BASE, BASE)
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(rows),
                         {"wall_s": "ok", "lane_records_per_s": "ok"})

    def test_lower_is_better_inside_bound_passes(self):
        # 20% slower against a 24% bound.
        head = runs([12.0, 12.2, 11.8, 12.1, 11.9], [100.0] * 5)
        rows, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(failures, [])
        self.assertAlmostEqual(rows[0]["worse"], 0.2)

    def test_lower_is_better_beyond_bound_fails(self):
        # 30% slower.
        head = runs([13.0, 13.2, 12.8, 13.1, 12.9], [100.0] * 5)
        rows, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(len(failures), 1)
        self.assertIn("wall_s", failures[0])
        self.assertEqual(verdicts(rows)["wall_s"], "REGRESSED")

    def test_lower_is_better_improvement_passes(self):
        head = runs([5.0] * 5, [100.0] * 5)
        _, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(failures, [])

    def test_higher_is_better_inside_bound_passes(self):
        # 20% fewer records per second.
        head = runs([10.0] * 5, [80.0, 79.0, 81.0, 80.5, 79.5])
        _, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(failures, [])

    def test_higher_is_better_beyond_bound_fails(self):
        # 30% fewer records per second.
        head = runs([10.0] * 5, [70.0, 69.0, 71.0, 70.5, 69.5])
        rows, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(len(failures), 1)
        self.assertIn("lane_records_per_s", failures[0])
        self.assertEqual(verdicts(rows)["lane_records_per_s"],
                         "REGRESSED")

    def test_higher_is_better_improvement_passes(self):
        head = runs([10.0] * 5, [200.0] * 5)
        _, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(failures, [])

    def test_failed_cell_fails_even_when_fast(self):
        head = runs([5.0] * 5, [200.0] * 5)
        head[3]["correct"] = False
        _, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(failures, ["w: HEAD run 3 reported correct: false"])

    def test_failed_run_fails(self):
        base = runs([10.0] * 5, [100.0] * 5)
        base[1] = {"error": "exited 2", "correct": False, "metrics": {}}
        _, failures = perf_gate.decide(SPECS, "w", base, BASE)
        self.assertEqual(failures, ["w: base run 1 exited 2"])

    def test_metric_missing_from_head_fails(self):
        head = runs([10.0] * 5, [100.0] * 5)
        for run in head:
            del run["metrics"]["lane_records_per_s"]
        _, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(failures, ["w: HEAD reported no lane_records_per_s"])

    def test_spread_wider_than_bound_is_reported_unresolved(self):
        noisy = runs([6.0, 8.0, 10.0, 12.0, 14.0], [100.0] * 5)
        rows, failures = perf_gate.decide(SPECS, "w", BASE, noisy)
        self.assertEqual(failures, [])
        self.assertIn("unresolved", verdicts(rows)["wall_s"])

    def test_pair_wins_count_pairs_head_beat(self):
        # wall_s: HEAD faster in pairs 0, 2 and 4, slower in 1, tied
        # in 3. lane_records_per_s: higher in every pair but the tie.
        head = runs([9.0, 10.5, 9.7, 10.1, 9.8],
                    [101.0, 99.0, 103.0, 99.0, 102.0])
        rows, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(failures, [])
        wins = {r["metric"]: (r["wins"], r["pairs"]) for r in rows}
        self.assertEqual(wins, {"wall_s": (3, 5),
                                "lane_records_per_s": (4, 5)})

    def test_pair_wins_skip_pairs_missing_the_metric(self):
        base = runs([10.0] * 4, [100.0] * 4)
        base[1] = {"error": "exited 2", "correct": False, "metrics": {}}
        head = runs([9.0] * 4, [110.0] * 4)
        self.assertEqual(
            perf_gate.pair_wins("wall_s", "lower", base, head), (3, 3))

    def test_pair_wins_do_not_change_the_verdict(self):
        # HEAD loses every pair by 1%: no win, still inside the bound.
        head = runs([10.1, 10.302, 9.898, 10.201, 9.999],
                    [99.0, 97.02, 100.98, 98.01, 99.99])
        rows, failures = perf_gate.decide(SPECS, "w", BASE, head)
        self.assertEqual(failures, [])
        self.assertEqual([(r["wins"], r["verdict"]) for r in rows],
                         [(0, "ok"), (0, "ok")])

    def test_medians_and_quartile_spread(self):
        med, spread = perf_gate.median_and_spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        # Exclusive quartiles of 1..5 are 1.5 and 4.5.
        self.assertAlmostEqual(spread, 1.0)


if __name__ == "__main__":
    unittest.main()
