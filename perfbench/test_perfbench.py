#!/usr/bin/env python3
"""Tests of the study benchmark itself.

Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the `perfbench` binaries like `run.py` does, then check that the
exact work counters repeat across two traced runs, that the traced spans add
up to the traced study time, that the traced binary refuses a worker count
other than its fixed 1, and that every metric `run.py` prints is named and
unitised as `BENCHMARK.json` declares.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SEED = 5


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        run.WORK = Path(".perfbench_work/test")
        run.WORK.mkdir(parents=True, exist_ok=True)
        cls.runner = run.Runner(run.build(), SEED)
        cls.a = cls.runner.trace("conflict-daily", tag="test-a")
        cls.b = cls.runner.trace("conflict-daily", tag="test-b")

    def test_traced_runs_succeed_with_identical_reports(self):
        self.assertIsNotNone(self.a)
        self.assertIsNotNone(self.b)
        self.assertEqual(self.a[1], self.b[1])

    def test_exact_counters_repeat(self):
        for key in run.EXACT:
            self.assertEqual(self.a[0][key], self.b[0][key], key)
        self.assertGreater(self.a[0]["scan.queries"], 0)
        self.assertGreater(self.a[0]["core.record_visits"], 0)
        self.assertGreater(self.a[0]["alloc.per_query"], 0)

    def test_spans_sum_to_traced_study_time(self):
        spans = load_spans(run.WORK / "spans-conflict-daily-test-a.jsonl")
        (study,) = [s for s in spans if s["parent"] is None]
        children = [s for s in spans if s["parent"] == "study"]
        study_us = study["end_us"] - study["start_us"]
        covered_us = sum(s["end_us"] - s["start_us"] for s in children)
        self.assertAlmostEqual(study_us / 1e6, self.a[0]["trace.study_s"], delta=1e-3)
        self.assertGreaterEqual(covered_us / study_us, run.MIN_SPAN_COVERAGE)
        self.assertLessEqual(covered_us, study_us)
        # Spans run one after another inside the study span.
        children.sort(key=lambda s: s["start_us"])
        for prev, cur in zip(children, children[1:]):
            self.assertLessEqual(prev["end_us"], cur["start_us"])
        self.assertGreaterEqual(children[0]["start_us"], study["start_us"])
        self.assertLessEqual(children[-1]["end_us"], study["end_us"])
        # Publishing and the sweep's fan-out are separate spans every day.
        names = {s["name"] for s in children}
        self.assertLessEqual({"world.publish", "scan.sweep_frame", "world.advance"}, names)


class Arguments(unittest.TestCase):
    def test_trace_refuses_workers(self):
        """The traced run is fixed at 1 worker, where its exact counters repeat."""
        os.chdir(ROOT)
        trace = run.build() / "trace"
        cmd = [str(trace), "--workload", "conflict-daily", "--seed", str(SEED),
               "--report", os.devnull, "--spans", os.devnull, "--workers", "1"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, b"")


class PrintedNames(unittest.TestCase):
    """Every metric `run.py` prints is declared in BENCHMARK.json, and vice versa."""

    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        self.assertEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def check(self, printed, declared):
        self.assertEqual({k: v["unit"] for k, v in printed.items()},
                         {m["name"]: m["unit"] for m in declared})

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_end_to_end_names(self):
        printed = self.run_bench("reanalysis", 0)
        self.check(printed, self.spec["end_to_end"])
        self.assertTrue(all(v["value"] > 0 for v in printed.values()))

    def test_per_layer_names(self):
        self.check(self.run_bench("reanalysis", 1), self.spec["per_layer"])


if __name__ == "__main__":
    unittest.main()
