#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload in BENCHMARK.json, in
both modes, prints a correct result line that holds exactly the
metrics BENCHMARK.json names, with their units.

    python3 perfbench/tests/test_smoke.py

Run from anywhere inside a checkout; each run is one second long, so
the whole file takes about a minute after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Runnable by run.py but not gated in BENCHMARK.json.
EXTRA_WORKLOADS = ["ddr3_funnel"]


def run_bench(workload, trace, seed=7, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class SmokeTest(unittest.TestCase):
    def check_mode(self, workload, trace, names):
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result, lines = result_of(done)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(names))
        for spec in names.values():
            got = metrics[spec["name"]]
            self.assertEqual(got["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(got["value"], (int, float), spec["name"])
        self.assertTrue(lines[-2].startswith("detail {"))
        detail = json.loads(lines[-2][len("detail "):])
        self.assertEqual(detail["workload"], workload)
        self.assertGreater(detail["host_calib_ms"]["median"], 0)
        return metrics

    def test_every_metric_printed_for_every_workload(self):
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m for m in SPEC["per_layer"]}
        names = [w["name"] for w in SPEC["workloads"]] + EXTRA_WORKLOADS
        for name in names:
            with self.subTest(workload=name, trace=0):
                metrics = self.check_mode(name, 0, e2e)
                for metric in e2e:
                    self.assertGreater(metrics[metric]["value"], 0, metric)
            with self.subTest(workload=name, trace=1):
                self.check_mode(name, 1, per_layer)

    def test_same_seed_same_simulated_statistics(self):
        workload = SPEC["workloads"][0]["name"]
        sims = []
        for _ in range(2):
            done = run_bench(workload, 0, seed=11)
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            metrics = result_of(done)[0]["metrics"]
            sims.append({k: v for k, v in metrics.items()
                         if k.startswith("sim_") and k != "sim_ticks_per_s"})
        self.assertEqual(sims[0], sims[1])

    def test_rejects_unknown_workload(self):
        done = run_bench("no_such_workload", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)

    def test_fails_without_the_simulator_sources(self):
        build = os.path.join(ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            done = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare,
                             root=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
