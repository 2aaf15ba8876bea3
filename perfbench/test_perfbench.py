#!/usr/bin/env python3
"""Self-tests of the repo benchmark, on seconds-long tiny runs.

    python3 perfbench/test_perfbench.py        # from the repo root

Builds like run.py does (under $CARGO_TARGET_DIR, default .bench_build)
and checks: every workload prints every metric BENCHMARK.json names, with
its unit, and fails no operation; exact counts repeat bit for bit under
one seed; a corrupted read-back value, and a child span stretched past
its parent, are each counted as a failure; and the
benchmark refuses to run (non-zero exit, no result) without the sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["snapshot-write", "restart-read", "serve-mixed"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Exact counts per workload: the same seed must reproduce them bit for bit.
EXACT = {
    "snapshot-write": ["sz.blocks_encoded", "sz.blocks_decoded", "h5.write_bytes",
                       "h5.writes", "model.size_error", "engine.reserved_per_actual"],
    "restart-read": ["sz.blocks_encoded", "sz.blocks_decoded", "h5.read_bytes",
                     "read.region_blocks_ratio", "read.region_bytes",
                     "series.links_per_read", "series.chain_blocks_ratio"],
}


def run(workload, trace, seed=7, extra=(), cwd=ROOT, runner=RUN):
    cmd = [sys.executable, runner, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        res, report = result(run(workload, trace))
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], report)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in spec])
        for m in spec:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        # The report lines carry every metric with its unit and sample count.
        tag = "layer" if trace else "e2e"
        printed = {l.split()[1] for l in report if re.match(rf"{tag} +\S+ +\S+ +\S+ +n=\d+$", l)}
        self.assertEqual(printed, {m["name"] for m in spec})
        self.assertTrue(any(l.startswith("ops_total=") and "ops_failed=0" in l for l in report))
        self.assertTrue(any(l.startswith("meta ") for l in report))
        return res

    def test_every_workload_prints_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                e2e = self.check_run(w, 0)
                for name, m in e2e["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{w} {name}")
                layer = self.check_run(w, 1)
                self.assertEqual(layer["metrics"]["trace.dropped"]["value"], 0)
                self.assertGreater(layer["metrics"]["trace_overhead"]["value"], 0)

    def test_restart_read_encodes_nothing(self):
        res, _ = result(run("restart-read", 1))
        self.assertEqual(res["metrics"]["sz.blocks_encoded"]["value"], 0)
        self.assertGreater(res["metrics"]["sz.blocks_decoded"]["value"], 0)

    def test_exact_counts_repeat_under_one_seed(self):
        for w, names in EXACT.items():
            with self.subTest(workload=w):
                a, _ = result(run(w, 1, seed=3))
                b, _ = result(run(w, 1, seed=3))
                for n in names:
                    self.assertEqual(a["metrics"][n]["value"], b["metrics"][n]["value"], n)
        for w in WORKLOADS:
            with self.subTest(workload=w, metric="stored_bytes_per_raw"):
                a, _ = result(run(w, 0, seed=3))
                b, _ = result(run(w, 0, seed=3))
                self.assertEqual(a["metrics"]["stored_bytes_per_raw"]["value"],
                                 b["metrics"]["stored_bytes_per_raw"]["value"])

    def test_corrupted_readback_is_a_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res, _ = result(run(w, 0, extra=["--corrupt", "readback"]))
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                if w != "serve-mixed":  # serve compares hashes of every sample of a key
                    self.assertEqual(res["failed"], 1)

    def test_child_span_outlasting_its_parent_is_a_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, extra=["--corrupt", "span"])
                res, _ = result(proc)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)
                self.assertIn("outside its parent", proc.stderr)


class Standalone(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "snapshot-write", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=d, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
