#!/usr/bin/env python3
"""Smoke tests for the benchmark (small traces; about a minute).

Run from anywhere:  python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("fig9-cold", "fig10-timed", "extend-resume")
SMOKE = ["--seed", "5", "--seconds", "0", "--records", "20000"]


def run_bench(workload, trace, *extra, script=RUN, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload,
         "--trace", str(trace)] + SMOKE + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        timeout=600)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.contract = json.load(f)
        with open(os.path.join(HERE, "metrics.json")) as f:
            cls.catalogue = json.load(f)

    def check_metrics(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        printed = result["metrics"]
        for m in self.contract[section]:
            self.assertIn(m["name"], printed)
            self.assertEqual(printed[m["name"]]["unit"], m["unit"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))
        self.assertEqual(set(printed),
                         {m["name"] for m in self.contract[section]})

    def test_catalogue_matches_contract(self):
        for section in ("end_to_end", "per_layer"):
            names = [m["name"] for m in self.contract[section]]
            self.assertEqual(names, list(self.catalogue[section]))
            for m in self.contract[section]:
                entry = self.catalogue[section][m["name"]]
                self.assertEqual(m["unit"], entry["unit"])
                self.assertEqual(m["better"], entry["better"])
                if section == "end_to_end":
                    self.assertEqual(m["bound"], entry["bound"])
        self.assertEqual({w["name"] for w in self.contract["workloads"]},
                         set(WORKLOADS))

    def test_untraced_smoke(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = last_json(proc)
                self.check_metrics(result, "end_to_end")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_smoke(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertIn("layer reconciliation", proc.stdout)
                self.check_metrics(last_json(proc), "per_layer")

    def test_perturbed_reference_is_caught(self):
        proc = run_bench("fig9-cold", 0, "--perturb-reference")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        rate_line = [l for l in proc.stdout.splitlines()
                     if l.startswith("cell_error_rate:")][0]
        self.assertGreater(float(rate_line.split()[1]), 0.0)

    def test_fails_without_sources(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("fig9-cold", 0, cwd=tmp,
                             script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            lines = proc.stdout.strip().splitlines()
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
