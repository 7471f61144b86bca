#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Builds perfbench (as run.py does), then runs every workload in the shape the
benchmark measures, with a 1-second budget (at least 3 repetitions), and
checks metric names, coverage and determinism.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("fleet_sparse", "group_active", "chaos_fleet")
# Everything a seed determines: the simulated metrics of the JSON result.
SIM_METRICS = ("sim_latency_p50_ms", "sim_latency_p99_ms", "sim_slo_met_ratio",
               "ops_completed_ratio")


def bench(workload, seed, trace):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    digests = {l.split()[1]: l.split()[2] for l in lines if l.startswith("digest ")}
    summary = [l for l in lines if l.startswith("end-to-end, full list:")]
    return result, digests, summary


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        listed = subprocess.run([run.BINARY, "--list-metrics"], stdout=subprocess.PIPE,
                                text=True, check=True).stdout
        cls.listed = json.loads(listed)
        for workload in WORKLOADS:
            for seed, trace in ((1, 0), (1, 1), (2, 0)):
                cls.runs[(workload, seed, trace)] = bench(workload, seed, trace)
        cls.repeat = {w: bench(w, 1, 0) for w in WORKLOADS}

    def test_metric_names_are_valid_and_unique(self):
        names = []
        for group in ("end_to_end", "per_layer"):
            for metric in self.spec[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                names.append(metric["name"])
        for workload in self.spec["workloads"]:
            names.append(workload["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_binary(self):
        for group in ("end_to_end", "per_layer"):
            spec = [(m["name"], m["unit"]) for m in self.spec[group]]
            listed = [(m["name"], m["unit"]) for m in self.listed[group]]
            self.assertEqual(spec, listed, group)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_every_named_metric_is_printed(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                result, _, _ = self.runs[(workload, 1, trace)]
                self.assertTrue(result["correct"], (workload, trace))
                self.assertGreaterEqual(result["attempted"], 1)
                expected = [m["name"] for m in self.spec[group]]
                self.assertEqual(list(result["metrics"]), expected, (workload, trace))
                if group == "end_to_end":
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, (workload, name))

    def test_same_seed_reproduces_simulated_metrics_and_digests(self):
        for workload in WORKLOADS:
            first, first_digests, first_summary = self.runs[(workload, 1, 0)]
            again, again_digests, again_summary = self.repeat[workload]
            for name in SIM_METRICS:
                self.assertEqual(first["metrics"][name]["value"],
                                 again["metrics"][name]["value"], (workload, name))
            self.assertEqual(first_digests, again_digests, workload)
            self.assertEqual(first_summary, again_summary, workload)
            traced, traced_digests, _ = self.runs[(workload, 1, 1)]
            self.assertEqual(first_digests, traced_digests, workload)

    def test_another_seed_changes_the_schedule(self):
        for workload in WORKLOADS:
            _, seed1, _ = self.runs[(workload, 1, 0)]
            _, seed2, _ = self.runs[(workload, 2, 0)]
            self.assertTrue(seed1)
            for name in seed1:
                self.assertNotEqual(seed1[name], seed2[name], (workload, name))


if __name__ == "__main__":
    unittest.main()
