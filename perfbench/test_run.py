"""Tests of run.py, the benchmark's orchestrator.

Run from the root of a checkout: python3 -m unittest perfbench/test_run.py
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class SummaryTest(unittest.TestCase):
    def test_known_quartiles(self):
        s = run.summary([1, 2, 3, 4, 5, 6, 7, 8, 9])
        self.assertEqual(s, {"median": 5, "q1": 2.5, "q3": 7.5, "n": 9})

    def test_even_count_and_order_independence(self):
        s = run.summary([8, 2, 6, 4])
        self.assertEqual(s["median"], 5)
        self.assertEqual(s["q1"], 2.5)
        self.assertEqual(s["q3"], 7.5)
        self.assertEqual(s["n"], 4)

    def test_matches_statistics_quantiles(self):
        values = [0.41, 0.39, 0.52, 0.47, 0.44, 0.40, 0.61, 0.43, 0.45, 0.42]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.summary(values), {"median": median, "q1": q1, "q3": q3, "n": 10})
        self.assertAlmostEqual(median, 0.435)

    def test_single_sample(self):
        self.assertEqual(run.summary([3.5]), {"median": 3.5, "q1": 3.5, "q3": 3.5, "n": 1})

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.summary([])


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            self.benchmark = json.load(handle)

    def test_names_are_well_formed_and_unique(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertTrue(run.NAME_RE.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_what_run_py_emits(self):
        for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = [(m["name"], m["unit"]) for m in self.benchmark[key]]
            self.assertEqual(listed, list(emitted), key)
        listed = [w["name"] for w in self.benchmark["workloads"]]
        self.assertTrue(set(listed) <= set(run.WORKLOADS), listed)

    def test_every_emitted_metric_has_a_value(self):
        setup = {
            "shards": 2,
            "generate_s": 0.4,
            "encode_write_s": 0.7,
            "file_bytes": 3800,
            "queries": 10,
        }
        layers = {
            "decode_s": 0.3,
            "decode_bytes": 3800,
            "decode_queries": 10,
            "compile_s": 0.01,
            "slices": 44,
            "compiled_queries": 10,
            "parse_s": 0.2,
            "analyze_s": 0.1,
            "yield_s": 0.05,
        }
        traced_out = {
            "walls_s": [0.5],
            "decide_s": 0.04,
            "observe_s": 0.0,
            "render_s": 0.0001,
            "policy_decide_s": [0.03, 0.01],
            "retries": 0,
            "retried_bytes": 0,
            "degraded_queries": 0,
            "wan_bytes": 1 << 30,
            "decisions": 44,
            "hits": 40,
            "bypasses": 0,
            "loads": 4,
            "evictions": 3,
            "useful_loads": 2,
            "event_log_bytes": 0,
        }
        stats = {"cpu_s": 0.45, "wall_s": 0.5}
        plain = [({"walls_s": [0.45]}, stats)] * 3
        traced = [(traced_out, stats)] * 3
        samples = {}
        metrics = run.layer_metrics(setup, layers, plain, traced, samples)
        self.assertEqual(sorted(metrics), sorted(n for n, _ in run.PER_LAYER))
        self.assertAlmostEqual(metrics["core.shard_decide_s_max"], 0.03)
        self.assertAlmostEqual(metrics["core.shard_imbalance"], 1.5)
        self.assertAlmostEqual(metrics["trace_overhead_s"], 0.05)
        # Self time: wall minus decode, compile, the slowest shard's
        # decisions, observers and rendering.
        self.assertAlmostEqual(metrics["federation.replay_self_s"], 0.5 - 0.3 - 0.01 - 0.03 - 0.0001)
        self.assertAlmostEqual(metrics["federation.wan_cost_gib"], 1.0)
        self.assertTrue(all(n in samples for n in ("core.decide_s", "traced_wall_s")))


class RunChecksTest(unittest.TestCase):
    def test_reference_wan(self):
        check = {"wan_bytes": [10, 10, 30, 30]}
        self.assertEqual(run.reference_wan("mem-thin-cache", check), 40)
        self.assertEqual(run.reference_wan("stream-decode", {"wan_bytes": [7, 7]}), 7)

    def test_unsound_or_failed_runs_count_every_query(self):
        good = {
            "walls_s": [0.1],
            "queries": 5,
            "expected_queries": 5,
            "conserves": True,
            "wan_bytes": 9,
        }
        short = dict(good, queries=4)
        leaky = dict(good, conserves=False)
        other = dict(good, wan_bytes=8)
        runs = [(good, {}), (short, {}), (leaky, {}), (other, {}), (None, {})]
        self.assertEqual(run.tally(runs, 9, 5), (25, 20))
        self.assertEqual(run.tally([(good, {})] * 2, 9, 5), (10, 0))
        repeated = dict(good, walls_s=[0.1, 0.1, 0.1])
        self.assertEqual(run.tally([(repeated, {})], 9, 5), (15, 0))

    def test_ratio_of_zero(self):
        self.assertEqual(run.ratio(3, 0), 0.0)
        self.assertEqual(run.ratio(3, 4), 0.75)


if __name__ == "__main__":
    unittest.main()
