#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Runs every workload once at the quick size (--seconds 1), untraced and
traced, and checks that each prints exactly the metrics BENCHMARK.json
names, with their units, and no failures. Then checks that a deliberately
wrong np reference row raises the failed count without crashing the run,
and that an inherited GROVER_* variable makes the run refuse to start.
About a minute on two cores.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
OUT = os.path.join("perfbench", "_out")


def run(*args, env=None):
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "7", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_names(self, workload, trace, key):
        proc, result = run("--workload", workload, "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)

    def test_every_metric_printed(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_names(w["name"], "0", "end_to_end")
            with self.subTest(workload=w["name"], trace=1):
                self.check_names(w["name"], "1", "per_layer")

    def test_wrong_np_row_counts_as_failed(self):
        os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
        src = os.path.join(ROOT, "perfbench", "np_reference.tsv")
        bad = os.path.join(OUT, "np_reference_wrong.tsv")
        with open(src) as f:
            rows = f.read().replace("NVD-MT\tSNB\t1.53\tgain", "NVD-MT\tSNB\t0.53\tloss")
        self.assertIn("0.53\tloss", rows)
        with open(os.path.join(ROOT, bad), "w") as f:
            f.write(rows)
        proc, result = run("--workload", "paper_sim", "--trace", "0", "--np-reference", bad)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])

    def test_inherited_environment_refused(self):
        env = dict(os.environ, GROVER_ENGINE="tree")
        proc, result = run("--workload", "compile_cold", "--trace", "0", env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
