#!/usr/bin/env python3
"""The key-recovery benchmark's own tests.

Run from the repository root (builds the benchmark program on first use):

    python3 krbench/test_krbench.py

- A tiny-shape smoke run of every workload, in both modes, must exit 0,
  report correct, and emit every metric BENCHMARK.json names, each with
  its unit, as the last stdout line.
- A deliberately corrupted result must raise fail_ratio (and lower
  ok_ratio) and make the command exit nonzero.
- Outside a full checkout the command must fail without printing a result.
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
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "krbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--shape", "tiny", *extra]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = res.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return res.returncode, result, res


class Smoke(unittest.TestCase):
    def check_metrics(self, result, spec_key):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = result["metrics"]
        self.assertEqual(set(got), set(expected))
        for name, unit in expected.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertIsInstance(got[name]["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        for wl in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    rc, result, res = run(wl["name"], trace)
                    self.assertEqual(rc, 0, res.stdout[-2000:] + res.stderr[-2000:])
                    self.assertIsNotNone(result)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, key)
                    m = result["metrics"]
                    if trace == 0:
                        self.assertEqual(m["ok_ratio"]["value"], 1)
                        self.assertGreater(m["recover_s"]["value"], 0)
                        self.assertGreater(m["setup_s"]["value"], 0)
                    else:
                        self.assertEqual(m["fail_ratio"]["value"], 0)
                        self.assertGreater(m["obs.trace_overhead_ratio"]["value"], 0)

    def test_corrupted_result_fails_the_run(self):
        # Repetition 1 is the second warm-up; 0 (the first) is the reference.
        for trace, key in ((0, "ok_ratio"), (1, "fail_ratio")):
            with self.subTest(trace=trace):
                rc, result, res = run("recover-serial", trace, "--corrupt-rep", "1")
                self.assertNotEqual(rc, 0)
                self.assertIsNotNone(result, res.stdout[-2000:])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                value = result["metrics"][key]["value"]
                if trace == 0:
                    self.assertLess(value, 1)
                else:
                    self.assertGreater(value, 0)
                self.assertIn("FAILED: component bits differ", res.stdout)

    def test_fails_without_program_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "krbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, result, _ = run("recover-serial", 0, cwd=tmp)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
