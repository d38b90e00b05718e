"""Smoke tests of the benchmark's own code, on tiny item sets.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

The file is named so that a plain ``pytest`` run of the repository does not
collect it; it exercises the benchmark, not the engine.
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import worker  # noqa: E402

sys.path.insert(0, bench.SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402
from superproj import cech, cohomology, linalg, scalars, tangent  # noqa: E402

TINY = 0.02


def tiny_run(workload: str, trace: bool) -> dict:
    return bench.run(workload, seed=3, seconds=0, trace=trace, scale=TINY, setup_runs=1)


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = bench.load_spec()
        for workload in bench.WORKLOAD_NAMES:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = tiny_run(workload, trace)
                    result = out["result"]
                    self.assertEqual(result["failed"], 0, out["failed_items"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in spec[key]})
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))
                    if trace and workload == "closed_forms":
                        self.assertEqual(result["metrics"]["cech.calls"]["value"], 0)
                    if trace and workload == "cech_wide":
                        self.assertEqual(result["metrics"]["cech.window_yield"]["value"], 0.5)
                        self.assertGreater(result["metrics"]["linalg.echelon.calls"]["value"], 0)

    def test_workload_names_match_spec(self):
        names = [w["name"] for w in bench.load_spec()["workloads"]]
        self.assertEqual(names, list(bench.WORKLOAD_NAMES))
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))


class ChecksCanFail(unittest.TestCase):
    def fail_ratio(self, items) -> float:
        _, _, outputs = worker.time_pass(items)
        return len(worker.check_outputs(items, outputs)) / len(items)

    def test_correct_expectations_pass(self):
        for workload, build in workloads.WORKLOADS.items():
            with self.subTest(workload=workload):
                self.assertEqual(self.fail_ratio(build(5, TINY)), 0)

    def test_wrong_euler_characteristic(self):
        items = workloads.law_suites(5, TINY)
        even, odd = items[0].expected
        items[0].expected = (even + 1, odd)
        self.assertGreater(self.fail_ratio(items), 0)

    def test_wrong_closed_form_dims(self):
        items = workloads.cech_wide(5, TINY)
        twist = next(i for i in items if "closed" in i.expected)
        h0e, h0o, h1e, h1o = twist.expected["closed"]
        twist.expected["closed"] = (h0e, h0o, h1e + 1, h1o)
        self.assertGreater(self.fail_ratio(items), 0)

    def test_wrong_gradient_kernel(self):
        items = workloads.closed_forms(5, TINY)
        gradient = next(i for i in items if i.label == "super_gradient n=1 m=2")
        gradient.expected = (0, 0)
        self.assertGreater(self.fail_ratio(items), 0)

    def test_raising_item_fails(self):
        items = workloads.closed_forms(5, TINY)[:3]
        items[1].run = lambda: 1 // 0
        self.assertAlmostEqual(self.fail_ratio(items), 1 / 3)

    def test_replay_must_reproduce_first_pass(self):
        run = bench.Run("closed_forms", 5, TINY)
        run.one_pass("check")
        self.assertEqual(run.failed, 0)
        run.reference[0] = "not an output"
        run.one_pass("replay")
        self.assertEqual((run.failed, run.attempted), (1, 2 * len(run.reference)))


class TracerPatches(unittest.TestCase):
    def test_callers_bindings_are_traced_and_restored(self):
        originals = {
            (cech, "echelon_basis"): linalg.echelon_basis,
            (tangent, "echelon_basis"): linalg.echelon_basis,
            (tangent, "bareiss_rank"): linalg.bareiss_rank,
            (tangent, "cohomology_dims"): cohomology.cohomology_dims,
            (scalars.Scalar, "__mul__"): scalars.Scalar.__mul__,
            (scalars.Scalar, "__rmul__"): scalars.Scalar.__rmul__,
        }
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (ns, attr), original in originals.items():
                self.assertIsNot(getattr(ns, attr), original, attr)
            cech.cech_cohomology(cech.twist_sheaf(2, -1))
            tangent.euler_tangent_dims(1, 3)
        finally:
            tracer.remove()
        for (ns, attr), original in originals.items():
            self.assertIs(getattr(ns, attr), original, attr)
        metrics = tracer.metrics()
        self.assertEqual(metrics["cech.calls"], 1)
        self.assertEqual(metrics["cech.windows"], 2)
        self.assertGreater(metrics["linalg.echelon.calls"], 0)
        self.assertGreater(metrics["linalg.bareiss.cells"], 0)
        self.assertGreater(metrics["cohomology.dims.busy_s"], 0)
        self.assertGreater(metrics["superpoly.to_b.calls"], 0)
        self.assertEqual(metrics["scalars.mul.rational_share"], 1.0)


if __name__ == "__main__":
    unittest.main()
