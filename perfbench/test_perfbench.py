#!/usr/bin/env python3
"""The benchmark's own test: a reduced-size pass over every workload.

    python3 perfbench/test_perfbench.py      (from the repository root)

It asserts that every metric BENCHMARK.json names is printed with its unit,
that an injected fingerprint mismatch is counted as exactly one failed op,
and that traced spans nest and have non-negative self times. The first run
builds the benchmark, as perfbench/run.py does.
"""
import json
import re
import subprocess
import sys
import unittest

SEED = "3"
EPSILON_MS = 1e-6

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
_runs = {}


def run(workload, trace, *extra):
    """Runs one reduced-size pass; returns (result object, stdout)."""
    key = (workload, trace, extra)
    if key not in _runs:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", SEED, "--seconds", "1", "--trace", str(trace),
             "--small", *extra],
            capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            raise AssertionError(f"{workload} exited {out.returncode}:\n"
                                 f"{out.stderr[-4000:]}")
        _runs[key] = (json.loads(out.stdout.strip().splitlines()[-1]),
                      out.stdout)
    return _runs[key]


class PerfbenchTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = run(workload, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], expected[name], name)
                        self.assertIsInstance(metric["value"], (int, float))

    def test_injected_mismatch_is_exactly_one_failed_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run(workload, 0, "--inject-mismatch", "1")
                self.assertEqual(result["failed"], 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 1)

    def test_traced_spans_nest_with_non_negative_self_times(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, stdout = run(workload, 1)
                path = re.search(r"^spans: (.+)$", stdout, re.M).group(1)
                with open(path) as f:
                    spans = [json.loads(line) for line in f]
                self.assertTrue(spans)
                for span in spans:
                    self.assertGreaterEqual(span["end_ms"], span["start_ms"])
                    self.assertGreaterEqual(span["self_ms"], -EPSILON_MS)
                    parent = span["parent"]
                    if parent < 0:
                        continue
                    self.assertLess(parent, span["id"])
                    outer = spans[parent]
                    self.assertEqual(outer["op"], span["op"])
                    self.assertGreaterEqual(span["start_ms"],
                                            outer["start_ms"] - EPSILON_MS)
                    self.assertLessEqual(span["end_ms"],
                                         outer["end_ms"] + EPSILON_MS)


if __name__ == "__main__":
    unittest.main()
