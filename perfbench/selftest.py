"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  The
file is not named like a pytest module, so the package's own test suite
does not collect it.
"""

import dataclasses
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import LongSeries, synthetic_pair  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # a: 0..10 with children b: 1..4 and c: 3..6 (overlapping, like pool
        # workers) and e: 9..12 (runs past its parent); b has child d: 2..3
        tree = [
            ("t", "a", 0.0, 10.0, -1),
            ("t", "b", 1.0, 4.0, 0),
            ("t", "c", 3.0, 6.0, 0),
            ("t", "d", 2.0, 3.0, 1),
            ("t", "e", 9.0, 12.0, 0),
            ("t", "b", 20.0, 21.0, -1),
        ]
        totals = spans.self_times(tree)
        self.assertAlmostEqual(totals["a"], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(totals["b"], (3.0 - 1.0) + 1.0)
        self.assertAlmostEqual(totals["c"], 3.0)
        self.assertAlmostEqual(totals["d"], 1.0)
        self.assertAlmostEqual(totals["e"], 3.0)


class Tracing(unittest.TestCase):
    def test_patches_every_binding_and_restores(self):
        import edmkit
        import edmkit.embedding
        import edmkit.simplex

        original = edmkit.embedding.knn
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(edmkit.embedding.knn, original)
            self.assertIs(edmkit.simplex.knn, edmkit.embedding.knn)
            self.assertIs(edmkit.knn, edmkit.embedding.knn)
            series = edmkit.TimeSeries("s", 0, [float(v) for v in range(30)])
            edmkit.skill_eval(edmkit.Dataset((series,)), "s",
                              edmkit.SimplexConfig(edmkit.EmbeddingSpec.univariate("s", 2)), 19)
        finally:
            tracer.uninstall()
        self.assertIs(edmkit.simplex.knn, original)
        self.assertEqual(tracer.counters["embedding.knn.calls"], 10)
        self.assertEqual(tracer.counters["embedding.knn.kept"], 30)
        self.assertGreater(tracer.counters["timeseries.dataset_builds"], 0)
        self.assertEqual(tracer.absent, [])

    def test_missing_name_is_recorded_as_absent(self):
        tracer = spans.Tracer()
        tracer._patch("simplex.gone", "edmkit.simplex", "no_such_function", True, [])
        tracer._patch("timeseries.gone", "edmkit.timeseries", "NoClass.method", True, [])
        self.assertEqual(tracer.absent, ["edmkit.simplex.no_such_function",
                                         "edmkit.timeseries.NoClass.method"])


class Small(LongSeries):
    n = 240


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = Small(ROOT, 5)
        cls.outputs = {name: task() for name, task in cls.workload.tasks()}

    def test_clean_outputs_pass(self):
        self.assertEqual(self.workload.check(self.outputs), [])

    def test_perturbed_prediction_is_flagged(self):
        result = self.outputs["smap"]
        predicted = np.array(result.predicted)
        predicted[:] += 1e-6  # every step, so any sampled step sees it
        outputs = dict(self.outputs, smap=dataclasses.replace(result, predicted=predicted))
        problems = self.workload.check(outputs)
        self.assertTrue(problems)
        self.assertTrue(all(p.startswith("smap:") for p in problems))

    def test_non_deterministic_output_fails(self):
        class Drifting:
            calls = 0

            def tasks(self):
                def task():
                    Drifting.calls += 1
                    return np.array([1.0, 2.0 + (Drifting.calls > 1)])
                return [("drift", task), ("steady", lambda: np.array([3.0]))]

            def check(self, outputs):
                return []

        passes = worker.run_passes(Drifting(), budget=0.0, min_passes=3)
        attempted, failed, problems = worker.gate(Drifting(), passes)
        self.assertEqual((attempted, failed), (6, 2))
        self.assertIn("drift: output differs from the first pass", problems)

    def test_raising_task_fails(self):
        class Broken:
            def tasks(self):
                return [("boom", lambda: 1 / 0)]

            def check(self, outputs):
                return []

        passes = worker.run_passes(Broken(), budget=0.0, min_passes=2)
        attempted, failed, problems = worker.gate(Broken(), passes)
        self.assertEqual((attempted, failed), (2, 2))
        self.assertTrue(problems[0].startswith("boom: ZeroDivisionError"))


class Inputs(unittest.TestCase):
    def test_seed_reproduces_and_changes_inputs(self):
        first = synthetic_pair(11, 500)
        again = synthetic_pair(11, 500)
        other = synthetic_pair(12, 500)
        self.assertEqual(np.asarray(first).tobytes(), np.asarray(again).tobytes())
        self.assertNotEqual(first[0][0], other[0][0])
        self.assertNotEqual(first[1][0], other[1][0])


class Contract(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(name.match(n) for n in names))
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(unit.match(m["unit"]))
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                      spec["end_to_end"])

    def test_every_per_layer_metric_is_produced(self):
        tracer = spans.Tracer()
        empty_pass = [{"wall": 1.0, "cal": [0.004], "cal_units": 250.0}]
        produced = set(worker.layer_values(tracer, empty_pass, empty_pass, object(), {}))
        produced |= set(worker.STAGES) | {"fail_ratio"}
        missing = [m["name"] for m in self.spec["per_layer"] if m["name"] not in produced]
        self.assertEqual(missing, [])


if __name__ == "__main__":
    unittest.main()
