#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_run.py

The smoke tests build the benchmark (once) and run every workload at toy
size, with and without the traced run.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

FINGERPRINT = [
    {"events": 1000, "payload_packets": 50, "delivery_fraction": 1.0,
     "latency_p50_ms": 120.5, "tree_edges": 99},
    {"events": 2000, "payload_packets": 70, "delivery_fraction": 0.9995,
     "latency_p50_ms": 130.25, "tree_edges": 98},
]


def changed(value):
    return value + 1 if isinstance(value, int) else value * (1 + 1e-12)


class Statistics(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.5]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.quartiles([])

    def test_spread_is_interquartile_share_of_median(self):
        # Exclusive quartiles of 1..5 are 1.5 and 4.5 around a median of 3.
        self.assertAlmostEqual(run.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(run.spread([2.0, 2.0, 2.0]), 0.0)


class Seeds(unittest.TestCase):
    def test_subseeds_are_disjoint_across_seeds(self):
        self.assertEqual(len(run.subseeds(7)), run.SUBSEEDS)
        self.assertFalse(set(run.subseeds(7)) & set(run.subseeds(8)))
        self.assertEqual(run.subseeds(7), run.subseeds(7))

    def test_by_seed_mean_weighs_each_seed_once(self):
        def record(seed, wall, delivery):
            return {"seed": seed, "wall_s": wall, "peak_rss_mb": 10.0,
                    "counters": {"sim.events": 100}, "points": 1,
                    "model": {name: delivery for name, _, base in
                              run.END_TO_END if base == "sim"}}
        # Seed 1 has three repetitions, seed 2 one: the mean of the
        # per-seed medians is (2 + 6) / 2, not the median of all four.
        records = [record(1, 1.0, 1.0), record(1, 2.0, 1.0),
                   record(1, 3.0, 1.0), record(2, 6.0, 0.5)]
        values = run.by_seed_mean(records, setup=0.0)
        self.assertEqual(values["wall_s"], 4.0)
        self.assertEqual(values["model_delivery_fraction"], 0.75)
        self.assertEqual(values["loop_events_per_s"],
                         (100 / 2.0 + 100 / 6.0) / 2)


class Fingerprints(unittest.TestCase):
    def test_identical_fingerprints_agree(self):
        self.assertEqual(run.compare_fingerprints(FINGERPRINT, FINGERPRINT), [])

    def test_every_single_changed_field_fails(self):
        for i, point in enumerate(FINGERPRINT):
            for key in point:
                other = [dict(p) for p in FINGERPRINT]
                other[i][key] = changed(point[key])
                diffs = run.compare_fingerprints(FINGERPRINT, other)
                self.assertEqual(len(diffs), 1, (i, key))
                self.assertTrue(diffs[0].startswith(f"run {i} {key}:"))

    def test_missing_field_and_point_count_fail(self):
        other = [dict(p) for p in FINGERPRINT]
        del other[1]["tree_edges"]
        self.assertEqual(len(run.compare_fingerprints(FINGERPRINT, other)), 1)
        self.assertEqual(len(run.compare_fingerprints(FINGERPRINT,
                                                      FINGERPRINT[:1])), 1)

    def test_failed_points_counts_named_runs_or_all(self):
        self.assertEqual(run.failed_points(["run 3 events: 1 != 2",
                                            "run 3 tree_edges: 1 != 2",
                                            "run 5 x"], 23), 2)
        self.assertEqual(run.failed_points(["exit 1: boom"], 23), 23)

    def test_checker_fails_a_differing_repetition(self):
        record = {"seed": 5, "failed_checks": [], "fingerprint": [
            {"delivery_fraction": 1.0, "recovery_stalled": 0,
             "buffer_drops": 0, "payload_packets": 100}]}
        checker = run.Checker("saturation", 1)
        checker.add("rep 1", record, "")
        checker.add("rep 2", record, "")
        self.assertEqual((checker.attempted, checker.failed), (2, 0))
        worse = json.loads(json.dumps(record))
        worse["fingerprint"][0]["recovery_stalled"] = 1
        checker.add("rep 3", worse, "")
        self.assertEqual((checker.attempted, checker.failed), (3, 1))
        checker.add("rep 4", None, "exit 1: boom")
        self.assertEqual((checker.attempted, checker.failed), (4, 2))

    def test_checker_keeps_one_reference_per_seed(self):
        record = {"seed": 5, "failed_checks": [], "fingerprint": [
            {"delivery_fraction": 1.0, "recovery_stalled": 0,
             "buffer_drops": 0, "payload_packets": 100}]}
        other = json.loads(json.dumps(record))
        other["seed"] = 6
        other["fingerprint"][0]["payload_packets"] = 120
        checker = run.Checker("saturation", 1)
        for label, r in (("a", record), ("b", other), ("c", record),
                         ("d", other)):
            checker.add(label, r, "")
        self.assertEqual((checker.attempted, checker.failed), (4, 0))


class Floors(unittest.TestCase):
    def test_floor_violations_name_the_run(self):
        good = {"delivery_fraction": 1.0, "recovery_stalled": 0,
                "buffer_drops": 0, "payload_packets": 100}
        self.assertEqual(run.floor_violations("saturation", [good]), [])
        bad = dict(good, buffer_drops=3, payload_packets=1000)
        out = run.floor_violations("saturation", [good, bad])
        self.assertEqual(len(out), 1)
        self.assertTrue(out[0].startswith("run 1 fails floor buffer_drops"))


class MetricNames(unittest.TestCase):
    def test_syntax(self):
        for name in ("wall_s", "net.topology_s", "sim.ns-per.event", "9x"):
            self.assertTrue(run.valid_name(name), name)
        for name in ("", ".wall", "wall s", "events/s", "a" * 65, "wall\n"):
            self.assertFalse(run.valid_name(name), name)

    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _, _ in run.END_TO_END])
        self.assertEqual([m["unit"] for m in spec["end_to_end"]],
                         [unit for _, unit, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(run.valid_name(metric["name"]), metric["name"])


class ToySmoke(unittest.TestCase):
    """Every workload at toy size, timed and traced, through the command."""

    @classmethod
    def setUpClass(cls):
        cls.timed, _ = run.build()

    def run_command(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--size", "toy"],
            capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_all_workloads(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, [n for n, _, _ in run.END_TO_END]),
                                 (1, [n for n, _ in run.PER_LAYER])):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_command(workload, trace)
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), names)

    def test_real_fingerprint_detects_each_changed_field(self):
        record, error, _ = run.run_program(self.timed, "paper_sweep", 3, "toy")
        self.assertIsNotNone(record, error)
        self.assertEqual(record["failed_checks"], [])
        reference = record["fingerprint"]
        self.assertEqual(len(reference), 23)
        for key, value in reference[0].items():
            other = json.loads(json.dumps(reference))
            other[0][key] = changed(value)
            self.assertEqual(len(run.compare_fingerprints(reference, other)),
                             1, key)


if __name__ == "__main__":
    unittest.main()
