#!/usr/bin/env python3
"""Self-test of the SHOAL benchmark.

    python3 perfbench/test_perfbench.py [-v]

Checks BENCHMARK.json and perfbench/layers.json against the benchmark's
contract, then runs every workload briefly (--seconds 1) through run.py:

  * every metric in BENCHMARK.json is printed, with its declared unit;
  * every workload, metric and unit name is valid;
  * every workload records why it was chosen, and every per-layer metric
    names the end-to-end metrics and workloads it should move;
  * a second seed changes the generated inputs but not the set of
    metrics.

The first run builds the benchmark binary (about a minute on 4 cores).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
LAYERS = load(os.path.join(HERE, "layers.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

_runs = {}


def run(workload, seed, trace):
    """Runs the benchmark once (memoized); returns (stdout lines, result)."""
    key = (workload, seed, trace)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=900)
        if done.returncode != 0:
            raise AssertionError(f"{key} exited {done.returncode}:\n{done.stderr}")
        lines = done.stdout.rstrip("\n").split("\n")
        _runs[key] = (lines, json.loads(lines[-1]))
    return _runs[key]


class SpecTest(unittest.TestCase):
    def test_names_are_valid(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, NAME)
        for unit in list(END_TO_END.values()) + list(PER_LAYER.values()):
            self.assertRegex(unit, UNIT)
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        self.assertTrue(1 <= len(END_TO_END) <= 16)
        self.assertTrue(1 <= len(PER_LAYER) <= 128)
        for row in SPEC["end_to_end"]:
            self.assertEqual(set(row), {"name", "unit", "better", "bound"})
            self.assertIn(row["better"], ("lower", "higher"))
            self.assertTrue(0 < row["bound"] <= 0.25)
        for row in SPEC["per_layer"]:
            self.assertEqual(set(row), {"name", "unit", "better"})
            self.assertIn(row["better"], ("lower", "higher"))
        self.assertIn("setup_s", END_TO_END)
        self.assertEqual(END_TO_END["setup_s"], "s")

    def test_every_workload_why_is_recorded(self):
        for workload in SPEC["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            why = workload["why"]
            self.assertTrue(0 < len(why) <= 200, workload["name"])
            self.assertNotIn("\n", why)

    def test_every_layer_metric_is_mapped(self):
        self.assertEqual(set(LAYERS), set(PER_LAYER))
        for name, row in LAYERS.items():
            self.assertEqual(set(row), {"moves", "why"}, name)
            self.assertTrue(row["why"], name)
            for workload, metrics in row["moves"].items():
                self.assertIn(workload, WORKLOADS, name)
                for metric in metrics:
                    self.assertIn(metric, END_TO_END, name)


class RunTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        printed = {name: row["unit"] for name, row in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for row in result["metrics"].values():
            self.assertIsInstance(row["value"], (int, float))

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, plain = run(workload, 1, 0)
                self.check_metrics(plain, END_TO_END)
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertGreaterEqual(plain["attempted"], 1)
                _, traced = run(workload, 1, 1)
                self.check_metrics(traced, PER_LAYER)
                self.assertTrue(traced["correct"])

    def test_second_seed_changes_inputs_not_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines1, result1 = run(workload, 1, 0)
                lines2, result2 = run(workload, 2, 0)
                inputs1 = [l for l in lines1 if l.startswith("inputs ")]
                inputs2 = [l for l in lines2 if l.startswith("inputs ")]
                self.assertTrue(inputs1)
                self.assertNotEqual(inputs1, inputs2)
                self.assertEqual(set(result1["metrics"]), set(result2["metrics"]))

    def test_run_record(self):
        lines, _ = run(WORKLOADS[0], 1, 0)
        record = [l for l in lines if l.startswith("run_record ")]
        self.assertEqual(len(record), 1)
        for field in ("nproc=", "cpu_model=", "steal_share="):
            self.assertIn(field, record[0])


if __name__ == "__main__":
    unittest.main()
