"""Self-tests for the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

Covers the percentile rule, self time on nested spans, that a one-byte
change in a dump counts as a failure, that different seeds give different
inputs but meet the same goldens, and that BENCHMARK.json names exactly the
metrics the runner prints.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workload as wl  # noqa: E402

import qlrc.construct  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(metrics.tail_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(metrics.tail_percentile(list(range(10000)))[0], 99.9)
        self.assertEqual(metrics.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(metrics.tail_percentile(list(range(99)))[0], 50.0)
        self.assertEqual(metrics.tail_percentile(list(range(20)))[0], 50.0)
        self.assertIsNone(metrics.tail_percentile(list(range(19))))

    def test_nearest_rank_value(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(metrics.tail_percentile(samples), (90.0, 90))
        self.assertEqual(metrics.percentile(samples, 50.0), 50)
        self.assertEqual(metrics.percentile([7], 99.0), 7)

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(metrics.spread([1.0, 1.0, 1.0, 1.0]), 0.0)
        q1, _, q3 = (0.75, 2.5, 4.25)  # statistics.quantiles([0..5], n=4) by the exclusive method
        self.assertAlmostEqual(metrics.spread([0, 1, 2, 3, 4, 5]), (q3 - q1) / 2.5)


class ReferenceSpeed(unittest.TestCase):
    def test_scaling_shrinks_times_grows_rates_keeps_counts(self):
        layers = {"construct.build_code_s": 2.0, "bounds.scan_words_per_s": 100.0, "linalg.rank_calls": 28}
        scaled = spans.scale_to_reference(layers, 0.5)
        self.assertEqual(scaled, {"construct.build_code_s": 1.0, "bounds.scan_words_per_s": 200.0,
                                  "linalg.rank_calls": 28})

    def test_sampler_times_the_kernel_and_its_handlers(self):
        sampler = speed.SpeedSampler(interval=0.005)
        sampler.start()
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        sampler.stop()
        self.assertGreater(len(sampler.kernel), 5)
        self.assertGreater(sampler.factor(), 0.0)
        self.assertAlmostEqual(sampler.inside(0.0, float("inf")), sum(sampler.spent))
        self.assertAlmostEqual(sampler.total(), sum(sampler.spent))

    def test_handler_time_is_taken_out_of_calls(self):
        sampler = speed.SpeedSampler()
        sampler.entries, sampler.spent = [1.0, 10.0], [2.0, 3.0]  # handlers at t = 1 and t = 10
        sampler._cum = [0.0, 2.0, 5.0]
        self.assertEqual(sampler.inside(0.0, 5.0), 2.0)
        self.assertEqual(sampler.inside(1.5, 10.0), 0.0)

        p = wl.Pass({}, "")
        p.record("call", "a", 5.0, "", 0.0)  # holds the first handler
        p.record("call", "b", 20.0, "", 5.0)  # holds the second
        p.record("check", "c", 0.0, "")  # untimed
        p.encode, p.repair = [(9.5, 4.0)], [(0.5, 3.0)]
        p.without_sampler(sampler)
        self.assertEqual([op[2] for op in p.ops], [3.0, 17.0, 0.0])
        self.assertEqual(p.timed_s(3), 20.0)
        self.assertEqual(p.timed_s(1), 3.0)
        self.assertEqual(p.encode, [(9.5, 1.0)])
        self.assertEqual(p.repair, [(0.5, 1.0)])


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # A [0,100] holds B [10,30] and C [40,70]; C holds D [50,60].
        starts = [0, 10, 40, 50]
        ends = [100, 30, 70, 60]
        parents = [-1, 0, 0, 2]
        self.assertEqual(spans.self_times_ns(starts, ends, parents), [50, 20, 20, 10])

    def test_foreign_time_leaves_durations_and_self_times(self):
        # A [0,100] holds B [10,30]; foreign time: 5 ns at 20 (in B), 10 ns at 50 (in A's own part).
        def inside(a, b):
            return sum(d for t, d in ((20e-9, 5e-9), (50e-9, 10e-9)) if a <= t < b)

        durs, selfs = spans.net_times_ns([0, 10], [100, 30], [-1, 0], inside)
        self.assertEqual([round(x) for x in durs], [85, 15])
        self.assertEqual([round(x) for x in selfs], [70, 15])

    def test_overlapping_children_count_once(self):
        self.assertEqual(spans.covered_ns([(0, 5), (3, 8), (20, 25)]), 13)
        self.assertEqual(spans.self_times_ns([0, 0, 3], [10, 5, 8], [-1, 0, 0]), [2, 5, 5])

    def test_recorder_links_parents_and_restores(self):
        original = qlrc.construct.encode
        tracer = spans.Tracer()
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(outer)
        self.assertEqual(tracer.parents, [-1, 0])
        tracer.install()
        self.assertIsNot(qlrc.construct.encode, original)
        tracer.uninstall()
        self.assertIs(qlrc.construct.encode, original)


class Checks(unittest.TestCase):
    def setUp(self):
        self.goldens = wl.load_goldens()
        self.work = tempfile.mkdtemp(dir=wl.ROOT, prefix=".bench_work-selftest-")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_one_byte_dump_change_raises_fail_ratio(self):
        p = wl.Pass(self.goldens, self.work)
        p.construct_call("construct", wl.PROBE)
        self.assertEqual(metrics.fail_ratio(p.ops), 0.0)

        real = qlrc.construct.instance_to_dump

        def one_byte_off(inst):
            dump = real(inst)
            dump["seed"] += 1  # "seed": 1 becomes "seed": 2
            return dump

        qlrc.construct.instance_to_dump = one_byte_off
        try:
            p.construct_call("construct", wl.PROBE)
        finally:
            qlrc.construct.instance_to_dump = real
        self.assertIn("sha256", p.ops[-1][3])
        self.assertEqual(metrics.fail_ratio(p.ops), 0.5)

    def test_shipped_dumps_are_the_golden_dumps(self):
        for names in wl.LOADED.values():
            for name in names:
                text = wl.canonical_dump(wl._read_json(wl.dump_path(name)))
                self.assertEqual(wl.check_dump_text(self.goldens["dumps"][name], text), "")

    def test_two_seeds_different_inputs_same_goldens(self):
        raw = wl._read_json(wl.dump_path(wl.PROBE))
        inst = qlrc.construct.instance_from_dump(raw)
        gen, ref = wl.encode_reference(raw)
        inputs = []
        for seed in (1, 2):
            rnd = wl.pass_rng(seed, "selftest", 0)
            batch = wl.roundtrip_inputs(rnd, inst.field.q, inst.k, inst.n, 20)
            inputs.append(batch)
            p = wl.Pass(self.goldens, self.work)
            vseed = str(rnd.randrange(1, 1 << 31))
            p.cli_call("verify", wl.PROBE, ["verify", "--instance", wl.dump_path(wl.PROBE), "--trials", "5",
                                            "--seed", vseed], self.goldens["verify_stdout"][wl.PROBE])
            p.roundtrips(wl.PROBE, inst, batch, gen, ref)
            self.assertEqual([op[3] for op in p.ops], [""] * 21)
        self.assertNotEqual(inputs[0], inputs[1])

    def test_wrong_encoding_is_caught(self):
        raw = wl._read_json(wl.dump_path(wl.PROBE))
        inst = qlrc.construct.instance_from_dump(raw)
        gen, ref = wl.encode_reference(raw)
        real = qlrc.construct.encode

        def off_by_one_symbol(inst_, msg):
            word = real(inst_, msg)
            word[0] = word[0] + inst_.field.one()
            return word

        qlrc.construct.encode = off_by_one_symbol
        try:
            p = wl.Pass(self.goldens, self.work)
            p.roundtrips(wl.PROBE, inst, [([1, 2, 3, 4, 5], 3)], gen, ref)
        finally:
            qlrc.construct.encode = real
        self.assertIn("reference encoding", p.ops[0][3])


class BenchmarkFile(unittest.TestCase):
    def test_metrics_and_workloads_match_the_runner(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], metrics.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]], metrics.PER_LAYER
        )


if __name__ == "__main__":
    unittest.main()
