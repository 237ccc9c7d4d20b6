"""Self-tests for the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

They run real `magma_census` processes on tiny inputs and take about ten
seconds. The file is not named test_*.py, so the package's own pytest run
does not collect it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

COUNT_3_2 = wl.Op("closed-form", ("count", "--n", "3", "--k", "2", "--jobs", "1"), ("3,2",))
GOOD_REFERENCE = {"3,2": wl.digest("3330\n")}
USAGE_ERROR = wl.Op("closed-form", ("count", "--n", "-1", "--k", "2", "--jobs", "1"), ("3,2",))
END_TO_END = {"ok_per_s", "peak_rss_mb", "setup_s"}
RECORD_KEYS = {"workload", "seed", "nproc", "os_cpu_count", "python", "magma_census_file",
               "int_max_str_digits_default", "argv", "ops_per_pass", "passes",
               "setup_samples", "ops_failed_frac", "failures"}


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=bench.ROOT))
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def bench(self, ops, reference, trace=False):
        return bench.run("closed-form", 0, 1, trace, reference, self.tmp, plan_ops=ops)

    def test_correct_output_counts_as_ok(self):
        out = self.bench([COUNT_3_2], GOOD_REFERENCE)["result"]
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreater(out["metrics"]["ok_per_s"]["value"], 0)

    def test_wrong_digest_is_a_failed_operation(self):
        out = self.bench([COUNT_3_2], {"3,2": wl.digest("3331\n")})
        self.assertFalse(out["result"]["correct"])
        self.assertEqual(out["result"]["failed"], out["result"]["attempted"])
        self.assertIn("differs from the reference", out["record"]["failures"][0])

    def test_nonzero_exit_is_a_failed_operation(self):
        out = self.bench([USAGE_ERROR], GOOD_REFERENCE)
        self.assertFalse(out["result"]["correct"])
        self.assertEqual(out["result"]["failed"], out["result"]["attempted"])
        self.assertIn("exit 2", out["record"]["failures"][0])

    def test_fully_failing_workload_still_gives_a_complete_record(self):
        for trace in (False, True):
            out = self.bench([USAGE_ERROR, COUNT_3_2], {"3,2": "0" * 64}, trace)
            result, record = out["result"], out["record"]
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertGreaterEqual(result["attempted"], 2)
            self.assertEqual(result["failed"], result["attempted"])
            self.assertEqual(record["ops_failed_frac"], 1.0)
            self.assertLessEqual(RECORD_KEYS, set(record))
            want = {m for m, _, _ in bench.PER_LAYER} if trace else END_TO_END
            self.assertEqual(set(result["metrics"]), want)
            json.dumps(out)

    def test_traced_run_reports_spans(self):
        out = self.bench([COUNT_3_2], GOOD_REFERENCE, trace=True)["result"]
        self.assertTrue(out["correct"])
        metrics = out["metrics"]
        self.assertEqual(metrics["census.count_k_magmas.calls"]["value"], 1)
        self.assertEqual(metrics["census.fixed_point_count.calls"]["value"], 3)
        self.assertEqual(metrics["cli.stdout_bytes"]["value"], 5)


class CheckTest(unittest.TestCase):
    def test_sequence_lines_are_checked_one_by_one(self):
        op = wl.Op("sequence", (), ("a", "b"))
        ref = {"a": wl.digest("0 1\n"), "b": wl.digest("1 10\n")}
        self.assertIsNone(wl.check(op, b"0 1\n1 10\n", ref))
        self.assertIsNotNone(wl.check(op, b"0 1\n", ref))
        self.assertIsNotNone(wl.check(op, b"0 1\n1 11\n", ref))

    def test_verify_needs_pass(self):
        op = wl.Op("verify", (), ("burnside",))
        self.assertIsNone(wl.check(op, b"burnside: PASS\n  31 pairs\n", {}))
        self.assertIsNotNone(wl.check(op, b"burnside: FAIL\n  n=2 k=2: 1 != 2\n", {}))
        self.assertIsNotNone(wl.check(op, b"", {}))

    def test_reference_covers_every_plan(self):
        reference = json.loads(bench.REFERENCE.read_text())
        for workload in wl.WORKLOADS:
            if workload == "verify":
                continue
            for seed in range(20):
                for op in wl.plan(workload, random.Random(seed), 2):
                    for key in op.expect:
                        self.assertIn(key, reference[workload])

    def test_sequence_passes_cover_the_span_once(self):
        for seed in range(20):
            ops = wl.plan("sequence", random.Random(seed), 2)
            keys = [key for op in ops for key in op.expect if key.startswith("n:")]
            lo, hi = wl.SEQUENCE_SPAN
            self.assertEqual(sorted(keys), sorted(f"n:{n},2" for n in range(lo, hi + 1)))

    def test_child_environment_is_isolated(self):
        saved = dict(os.environ)
        try:
            os.environ["MAGMA_CENSUS_JOBS"] = "7"
            os.environ["PYTHONINTMAXSTRDIGITS"] = "0"
            env = bench.child_env()
        finally:
            os.environ.clear()
            os.environ.update(saved)
        self.assertNotIn("MAGMA_CENSUS_JOBS", env)
        self.assertNotIn("PYTHONINTMAXSTRDIGITS", env)
        self.assertEqual(env["PYTHONPATH"], str(bench.SRC))


if __name__ == "__main__":
    unittest.main()
