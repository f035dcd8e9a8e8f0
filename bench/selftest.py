"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Runs a shrunken pass of every workload through the real harness, checks
that the printed metric names match BENCHMARK.json and that a traced
pass adds up, and shows that a deliberately perturbed reference makes
the gate count failed ops.
"""

import json
import math
import os
import shutil
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = 0.25


def _work(name: str) -> Path:
    return BENCH / "_work" / f"selftest-{name}-{os.getpid()}"


class TinyPasses(unittest.TestCase):
    def _measure(self, workload, trace):
        work = _work(f"{workload}-{int(trace)}")
        try:
            return run.measure(workload, seed=11, seconds=0, trace=trace, work=work,
                               size=TINY)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_every_workload_runs_and_reports_end_to_end_metrics(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = self._measure(workload, trace=False)
                self.assertTrue(result["correct"], result["failures"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)
                for m in SPEC["end_to_end"]:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                known = {op["id"] for op in result["ops"] if op["known_defect"]}
                self.assertLessEqual(set(result["failures"]), known)

    def test_traced_pass_adds_up(self):
        result = self._measure("lab-session", trace=True)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})
        for m in SPEC["per_layer"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertTrue(math.isclose(self_s + metrics["trace.unattributed_s"],
                                     metrics["trace.wall_s"], rel_tol=1e-9))
        self.assertGreater(metrics["detector.click_distribution.calls"], 0)
        self.assertGreater(metrics["fock.rotations_per_axis"], 1.0)


class PerturbedReference(unittest.TestCase):
    """The checker runs in-process here, so its reference can be perturbed."""

    @classmethod
    def setUpClass(cls):
        import check

        cls.check = check
        cls.work = _work("perturbed")
        cls.ops = workloads.generate("lab-session", 5, TINY)
        cls.work.mkdir(parents=True)
        (cls.work / "ops.json").write_text(json.dumps(cls.ops))
        cls.record = run._run_pass(cls.work, 0, traced=False, timeout=60)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def _gate(self):
        checks = {op["id"]: self.check.check_op(op, self.work / "pass0" / op["id"])
                  for op in self.ops}
        return run.tally(self.ops, [self.record], checks)

    def test_true_reference_passes_all_but_known_defects(self):
        gate = self._gate()
        self.assertTrue(gate["correct"], gate["failures"])
        self.assertEqual(gate["failed"],
                         sum(op["known_defect"] is not None for op in self.ops))

    def test_perturbed_reference_fails_ops(self):
        original = self.check.reference_mgf
        self.check.reference_mgf = lambda *a: original(*a) * (1.0 + 1e-3)
        try:
            gate = self._gate()
        finally:
            self.check.reference_mgf = original
        self.assertFalse(gate["correct"])
        for op_id in ("mgf-0-0", "clicks-tmsv-0", "clicks-mixture-z-0"):
            self.assertIn(op_id, gate["failures"])
            self.assertIn("CheckFailed", gate["failures"][op_id]["reason"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
