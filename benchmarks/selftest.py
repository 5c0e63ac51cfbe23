#!/usr/bin/env python3
"""Self-test of the benchmark on reduced inputs (about a minute).

    python3 benchmarks/selftest.py

Checks that every metric prints by name with its unit and matches
BENCHMARK.json, that a deliberately wrong digest raises fail_ratio above 0,
and that the benchmark refuses to run where the gshift sources are missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OP_WORKLOADS = ("classify-tables", "entry-weave")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--size", "small", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


class SelfTest(unittest.TestCase):
    def assert_printed(self, text: str, name: str, unit: str) -> float:
        match = re.search(rf"^{re.escape(name)}\s+(\S+) {re.escape(unit)}\b", text, re.M)
        self.assertIsNotNone(match, f"{name} [{unit}] not printed:\n{text}")
        return float(match.group(1))

    def assert_metrics(self, result: dict, spec: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics_print_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                    self.assert_printed(proc.stdout, m["name"], m["unit"])
                self.assertEqual(self.assert_printed(proc.stdout, "fail_ratio",
                                                     "failed/attempted"), 0)
                if workload in OP_WORKLOADS:
                    self.assert_printed(proc.stdout, "op_p50_us", "us")
                    self.assert_printed(proc.stdout, "op_p99_us", "us")

    def test_per_layer_metrics_print_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "1", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assert_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"], proc.stdout)  # counts repeat exactly
                for m in SPEC["per_layer"]:
                    self.assert_printed(proc.stdout, m["name"], m["unit"])
                self.assertNotIn("not found", proc.stderr)
                metrics = result["metrics"]
                if workload.startswith("verify-"):
                    self.assertEqual(metrics["stats.profiles_per_window"]["value"], 2)
                self.assertGreater(metrics["trace.spans"]["value"], 0)

    def test_wrong_digest_counts_as_failure(self):
        digests = json.loads((HERE / "digests.json").read_text())
        for workload, entry in digests["small"].items():
            key = next(iter(entry))
            entry[key] = "0" * 64
        SCRATCH.mkdir(parents=True, exist_ok=True)
        wrong = SCRATCH / "wrong-digests.json"
        wrong.write_text(json.dumps(digests))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "0", "--trace", "0",
                             "--digests", str(wrong))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(self.assert_printed(proc.stdout, "fail_ratio",
                                                       "failed/attempted"), 0)
                self.assertIn("digest", proc.stdout)

    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "0",
             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
