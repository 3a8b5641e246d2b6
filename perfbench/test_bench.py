#!/usr/bin/env python3
"""The benchmark's own test: smoke runs of every workload at a tiny size.

    python3 perfbench/test_bench.py

Builds the perfbench program as run.py does, then checks for each workload
that a tiny run passes its output checks and prints every metric BENCHMARK.json
names, that the exact per-unit counts repeat across two traced runs with
one seed, and that the configuration guard refuses a TDP_* variable.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ["core.calls_per_unit", "dist.element_ops_per_unit",
         "vp.messages_per_unit", "comm.bytes_copied_per_unit",
         "comm.bytes_delivered_per_unit"]
# Per unit at the tiny sizes: (distributed calls, element calls).
EXPECTED = {"pipeline": (3, 3 * 4 * 64), "climate": (2, 4), "solver": (3, 2 * 32)}


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("TDP_")}


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def drive(self, workload, trace, env=None):
        proc = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=120,
            env=clean_env() if env is None else env)
        return proc

    def result(self, workload, trace):
        proc = self.drive(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        printed = {l.split()[1] for l in lines if l.startswith("metric ")}
        return res, printed

    def test_end_to_end_names_and_checks(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res, printed = self.result(w, 0)
                self.assertEqual(set(res["metrics"]), names)
                self.assertEqual(printed, names)
                self.assertEqual(res["metrics"]["ok_ratio"]["value"], 1.0)

    def test_per_layer_names_and_exact_counts(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first, printed = self.result(w, 1)
                second, _ = self.result(w, 1)
                self.assertEqual(set(first["metrics"]), names)
                self.assertEqual(printed, names)
                for name in EXACT:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                calls, elements = EXPECTED[w]
                self.assertEqual(first["metrics"]["core.calls_per_unit"]["value"], calls)
                self.assertEqual(
                    first["metrics"]["dist.element_ops_per_unit"]["value"], elements)
                self.assertEqual(first["metrics"]["dist.failures"]["value"], 0)

    def test_guard_refuses_tdp_variables(self):
        proc = self.drive("climate", 0, env=dict(clean_env(), TDP_OBS="1"))
        self.assertEqual(proc.returncode, 2)
        self.assertNotIn('"correct"', proc.stdout)
        self.assertIn("TDP_OBS", proc.stderr)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(clean_env(), CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "climate",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
