#!/usr/bin/env python3
"""The benchmark's own tests.

Every workload, run at a tiny size, must print exactly the end-to-end
metrics untraced and exactly the per-layer metrics traced, each with the
unit BENCHMARK.json gives it; and each correctness check must be able to
fail the run: a wrong golden report (cold), a corrupted counter word
(sections) and an edit that repeats an earlier source (daemon).

Run from anywhere: python3 lockbench/test_lockbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["cold", "daemon", "sections"]

END_TO_END = ["setup_s", "peak_rss_mb", "throughput_per_s", "light_op_us",
              "heavy_op_us"]

PER_LAYER = [
    # cold
    "lang.parse_ms", "lang.sema_ms", "ir.lower_ms", "analysis.callgraph_ms",
    "pointsto.solve_ms", "infer.run_ms", "ir.render_ms",
    "pipeline.unaccounted_share", "lang.source_bytes", "ir.functions",
    "ir.sections", "infer.locks", "infer.interner_nodes",
    "infer.interner_hits", "infer.summaries_deduped", "infer.arena_bytes",
    # daemon
    "service.roundtrip_ms.resubmit", "service.roundtrip_ms.edit",
    "service.roundtrip_p95_ms.resubmit", "service.roundtrip_p95_ms.edit",
    "service.analyze_ms.resubmit", "service.analyze_ms.edit",
    "service.transport_ms", "service.front_half_ms", "service.fingerprint_ms",
    "service.cache_hits", "service.cache_misses", "service.hit_ratio",
    "service.hit_ratio_base", "service.dirty_cone_sections",
    "service.reanalyzed_sections", "service.request_bytes",
    "service.response_bytes",
    # sections
] + [
    "runtime.%s.%s" % (phase, name)
    for phase in ("fine", "coarse", "uncontended")
    for name in ("acquire_ns", "release_ns", "node_acquisitions_per_section",
                 "leaf_cache_hit_ratio")
] + ["runtime.coarse.park_events_per_1k", "runtime.scaling",
     "runtime.scaling_base", "trace_overhead_pct"]


def run(workload, trace, *extra):
    """Runs one tiny workload; returns (exit status, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return bench, units


class Metrics(unittest.TestCase):
    def test_benchmark_json_declares_exactly_these_metrics(self):
        bench, _ = declared()
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(WORKLOADS))
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         set(END_TO_END))
        self.assertEqual({m["name"] for m in bench["per_layer"]},
                         set(PER_LAYER))

    def test_every_workload_prints_every_metric_with_its_unit(self):
        _, units = declared()
        for workload in WORKLOADS:
            for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    status, result = run(workload, trace)
                    self.assertEqual(status, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(names))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name], name)
                        self.assertIsInstance(metric["value"], (int, float),
                                              name)


class Checks(unittest.TestCase):
    def assertFails(self, workload, fault):
        status, result = run(workload, 0, "--inject", fault)
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_wrong_golden_fails_cold(self):
        self.assertFails("cold", "wrong-golden")

    def test_corrupted_counter_word_fails_sections(self):
        self.assertFails("sections", "corrupt-word")

    def test_edit_repeating_an_earlier_source_fails_daemon(self):
        self.assertFails("daemon", "repeat-edit")


if __name__ == "__main__":
    unittest.main()
