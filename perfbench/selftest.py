"""Self-test of the benchmark's own code, at tiny sizes.

Run from the root of the checkout:

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both the untraced and the traced run; that the output checks trip on
planted bad outputs, handed to them directly; and that the tracer patches
every module that looks a function up and restores them afterwards.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from mixedwidths import cli, norms, partitions, spread, widths  # noqa: E402
from mixedwidths.partitions import Partition, PartitionReport  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

TINY = {
    "build": {"skeleton": ((2, 16, (16, 18), 1, True), (3, 64, (64, 66), 1, False))},
    "pipeline": {
        "sweep_windows": ((8, 10), (16, 16)), "samples": 4,
        "wide_windows": (((6, 8), (20, 30)),), "wide_samples": 2,
    },
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class MetricsEmitted(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        spec = load_spec()
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for name, sizes in TINY.items():
                with self.subTest(workload=name, trace=trace):
                    result, _ = run.benchmark(workloads.WORKLOADS[name](7, **sizes), 0.01, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric in result["metrics"].values():
                        self.assertTrue(np.isfinite(metric["value"]))

    def test_per_layer_table_matches_spec(self):
        spec = load_spec()
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)

    def test_same_seed_same_inputs(self):
        for name, sizes in TINY.items():
            a, b = workloads.WORKLOADS[name](3, **sizes), workloads.WORKLOADS[name](3, **sizes)
            a.setup()
            b.setup()
            self.assertEqual(
                [u.label for u in a.units()], [u.label for u in b.units()], name
            )


class PlantedBadOutputs(unittest.TestCase):
    def test_partition_with_duplicated_cell(self):
        shape = norms.BlockShape(2, 2)
        bad = Partition(shape, (((0, 0), (1, 1)), ((1, 0),), ((0, 1),), ((0, 0),)), r=2, l=1)
        # a report that missed the defect, so only the benchmark's own check can see it
        report = PartitionReport(ok=True, r_observed=2, l_observed=1, cover_ok=True, violations=())
        problems = workloads.check_grid(2, 2, 2, bad, report)
        self.assertTrue(any("duplicated" in p for p in problems), problems)

    def test_good_partition_passes(self):
        shape = norms.BlockShape(2, 2)
        good = Partition(shape, (((0, 0), (1, 1)), ((1, 0),), ((0, 1),)), r=2, l=1)
        report = PartitionReport(ok=True, r_observed=2, l_observed=1, cover_ok=True, violations=())
        self.assertEqual(workloads.check_grid(2, 2, 2, good, report), [])

    def test_wrong_certified_parameters(self):
        shape = norms.BlockShape(2, 2)
        good = Partition(shape, (((0, 0), (1, 1)), ((1, 0),), ((0, 1),)), r=2, l=2)
        report = PartitionReport(ok=True, r_observed=2, l_observed=1, cover_ok=True, violations=())
        self.assertTrue(workloads.check_grid(2, 2, 2, good, report))

    def test_sweep_row_measured_above_certified(self):
        header = "s,b,d,k,r,l,dim,d0,sup_sampled_error,ratio,certified_bound"
        ok_row = "16,16,4,2,2,1,136,16.0,3.0,0.1875,4.0"
        bad_row = "16,16,4,2,2,1,136,16.0,5.0,0.3125,4.0"
        self.assertEqual(workloads.check_sweep(0, f"{header}\n{ok_row}\n", [16]), [[]])
        problems = workloads.check_sweep(0, f"{header}\n{bad_row}\n", [16])
        self.assertTrue(problems[0], problems)
        self.assertTrue(workloads.check_sweep(3, "", [16])[0])

    def test_sweep_layout_changes(self):
        header = "s,b,d,k,r,l,dim,d0,sup_sampled_error,ratio,certified_bound"
        ok_row = "16,16,4,2,2,1,136,16.0,3.0,0.1875,4.0"
        swapped = header.replace("ratio,certified_bound", "certified_bound,ratio")
        self.assertTrue(workloads.check_sweep(0, f"{swapped}\n{ok_row}\n", [16])[0])
        self.assertTrue(workloads.check_sweep(0, f"{header}\n{ok_row},7\n", [16])[0])
        self.assertTrue(workloads.check_sweep(0, f"{header}\n{ok_row[:-4]}\n", [16])[0])

    def test_analytic_witness(self):
        record = widths.WitnessRecord("analytic", None, None, None, 1.0, "")
        self.assertTrue(workloads.check_witness(record, 8, 20))


class TracerPatching(unittest.TestCase):
    def test_patches_every_lookup_and_restores(self):
        originals = (partitions.good_partition, partitions.restrict, spread.approximate,
                     spread.SpreadOperator.__init__)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(spread.good_partition, originals[0])
            self.assertIs(spread.good_partition, partitions.good_partition)
            self.assertIs(widths.good_partition, partitions.good_partition)
            self.assertIs(cli.approximate, spread.approximate)
            self.assertIs(widths.approximate, spread.approximate)
            self.assertIsNot(partitions.restrict, originals[1])
            tracer.begin_round()
            tracer.next_item()
            spread.SpreadOperator(partitions.good_partition(8, 5, 2))
            tracer.next_item()
            partitions.restrict(partitions.good_partition(8, 8, 2), 8, 4)
            tracer.end_round()
        finally:
            tracer.uninstall()
        self.assertEqual(
            (partitions.good_partition, partitions.restrict, spread.approximate,
             spread.SpreadOperator.__init__),
            originals,
        )
        cols = tracer.columns()
        names = [tracer.names[i] for i in cols["name"]]
        self.assertEqual(names[0], "partitions.good_partition")
        self.assertIn("partitions.restrict", names)
        self.assertIn("spread.SpreadOperator.init", names)
        self.assertEqual(set(cols["item"][: names.index("spread.SpreadOperator.init") + 1]), {0})
        self.assertEqual(cols["item"][-1], 1)
        # self times of all spans add up to the time covered by the roots
        dur = cols["end"] - cols["start"]
        metrics = tracer.layer_metrics()
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_total, dur[cols["parent"] < 0].sum(), delta=1e-6)


if __name__ == "__main__":
    unittest.main()
