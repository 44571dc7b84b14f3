"""The benchmark's own tests.

Run from the repository root (takes about two minutes):

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run_bench(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    """The result line, with the context line kept for failure messages."""
    assert proc.returncode == 0, proc.stderr
    context, last = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(last)
    result["context_line"] = context
    return result


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def assert_clean(self, result):
        context = result.pop("context_line")
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], context)
        self.assertEqual(result["failed"], 0, context)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_metrics_are_printed_and_nonzero(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                result = result_of(run_bench(workload, 0))
                self.assert_clean(result)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, declared)
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)

    def test_layer_counts_repeat_for_one_seed(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, dict(spans.PER_LAYER))
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                first = result_of(run_bench(workload, 1))
                second = result_of(run_bench(workload, 1))
                for result in (first, second):
                    self.assert_clean(result)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     declared)
                for name in spans.COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_refuses_directory_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("pointwise", 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
