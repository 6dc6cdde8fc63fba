#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/test_perfbench.py      (from the repository root)

Checks, for every workload in BENCHMARK.json, that a run prints exactly the
declared metrics with their declared units, that its outputs are correct,
and that the deterministic counters repeat for one seed and change for
another.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

# tcp_mixed is not in BENCHMARK.json (see NOTES.md) but stays runnable.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["tcp_mixed"]

# Counters that depend only on the inputs, never on timing.
E2E_COUNTERS = ["sub_messages_per_subscribe", "pub_messages_per_publish",
                "routing_entries_per_broker"]
TRACE_COUNTERS = ["routing.hops_per_publish", "routing.suppressed_share",
                  "store.covered_share", "store.promotions_per_erase",
                  "core.path_share.pairwise_cover", "core.path_share.mcs_empty",
                  "core.path_share.rspc_witness",
                  "core.path_share.rspc_probabilistic", "core.candidates.p50"]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed={seed} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(result, names):
    return [result["metrics"][name]["value"] for name in names]


class BenchmarkTest(unittest.TestCase):
    def check_shape(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in SPEC[declared]})

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 1, 0)
                self.check_shape(first, "end_to_end")
                for name, metric in first["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                again = run(workload, 1, 0)
                other = run(workload, 2, 0)
                self.assertEqual(values(first, E2E_COUNTERS),
                                 values(again, E2E_COUNTERS))
                self.assertNotEqual(values(first, E2E_COUNTERS),
                                    values(other, E2E_COUNTERS))

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 1, 1)
                self.check_shape(first, "per_layer")
                again = run(workload, 1, 1)
                other = run(workload, 2, 1)
                self.assertEqual(values(first, TRACE_COUNTERS),
                                 values(again, TRACE_COUNTERS))
                self.assertNotEqual(values(first, TRACE_COUNTERS),
                                    values(other, TRACE_COUNTERS))


if __name__ == "__main__":
    unittest.main()
