"""Tests of the benchmark's metric rules: the tail percentile, span self
times and the shape of the metrics it reports.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


class TailPercentileTest(unittest.TestCase):

    def test_picks_the_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_omitted_below_ten_samples_beyond(self):
        # 19 samples: the median has rank 10 and only 9 beyond it.
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(1))
        self.assertEqual(stats.tail(list(range(19)), 19), (None, None))

    def test_every_chosen_percentile_has_ten_samples_beyond(self):
        for n in range(1, 3000):
            pct = stats.tail_percentile(n)
            if pct is None:
                continue
            values = list(range(n))
            value = stats.nearest_rank(values, pct)
            self.assertGreaterEqual(sum(1 for v in values if v > value), 10)

    def test_percentile_is_fixed_by_the_guaranteed_op_count(self):
        # A run that did more ops than min_ops is judged at the same
        # percentile, so a faster build is not compared at a higher one.
        values = list(range(1, 1001))
        self.assertEqual(stats.tail(values, 40), (75.0, 750))
        self.assertEqual(stats.tail(values[:40], 40), (75.0, 30))
        # Fewer samples than the run guarantees: no tail.
        self.assertEqual(stats.tail(values[:39], 40), (None, None))


def span(span_id, parent, start, end, name="s"):
    return {"id": span_id, "parent": parent, "name": name, "op": 0,
            "start_us": start, "end_us": end}


class SelfTimeTest(unittest.TestCase):

    def test_subtracts_the_time_children_cover(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60)]
        self.assertEqual(stats.self_times(spans), {1: 70, 2: 20, 3: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 40, 70)]
        self.assertEqual(stats.self_times(spans)[1], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(stats.self_times(spans)[1], 90)

    def test_only_own_children_count(self):
        # Two interleaved clients: span 3 overlaps span 1 in time but is
        # the child of span 2, so it does not reduce span 1's self time.
        spans = [span(1, 0, 0, 100), span(2, 0, 20, 80), span(3, 2, 30, 60)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 100)
        self.assertEqual(selfs[2], 30)

    def test_summary_by_name(self):
        spans = [span(1, 0, 0, 1000, "op"), span(2, 1, 0, 400, "child"),
                 span(3, 0, 0, 2000, "op")]
        summary = stats.self_time_by_name(spans)
        self.assertEqual(summary["op"], {"self_ms": 2.6, "count": 2})
        self.assertEqual(summary["child"], {"self_ms": 0.4, "count": 1})


class DeclarationTest(unittest.TestCase):

    def test_benchmark_json_matches_the_reported_metrics(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            declared = json.load(f)
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in declared["end_to_end"]}
        self.assertEqual(e2e, stats.END_TO_END)
        layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
        self.assertEqual(layers, stats.PER_LAYER)

    def test_metrics_of_a_small_record(self):
        ops = [{"kind": "save", "host_ms": float(i), "virtual_s": 2.0 * i,
                "ok": True, "traced": i % 2 == 0,
                "ref_ms": stats.REF_NOMINAL_MS} for i in range(1, 41)]
        record = {
            "ops": ops, "min_ops": 40, "setup_s": [0.5, 0.7, 0.6],
            "timed_host_s": 0.82, "stored_bytes": 80.0, "raw_bytes": 100.0,
            "peak_rss_mb": 10.0, "totals": {"sim.steps": 4000.0},
            "probes": {"sim.switch_us": 10.0}, "inserted_rows": 0,
            "written_columns": 1, "data_scale": 1.0,
        }
        e2e = stats.end_to_end(record)
        self.assertEqual(set(e2e), set(stats.END_TO_END))
        self.assertEqual(e2e["setup_s"], 0.6)
        self.assertEqual(e2e["host_ms_p50"], 20.5)
        self.assertEqual(e2e["host_ms_tail"], 30.0)
        self.assertEqual(e2e["virtual_s_tail"], 60.0)
        self.assertEqual(e2e["stored_bytes_per_raw_byte"], 0.8)
        self.assertEqual(e2e["op_success_ratio"], 1.0)
        # A machine running at half the reference speed reports the same.
        slow = dict(record, timed_host_s=1.64, setup_s=[1.0, 1.4, 1.2],
                    ops=[dict(op, host_ms=2 * op["host_ms"],
                              ref_ms=2 * op["ref_ms"]) for op in ops])
        self.assertEqual(stats.end_to_end(slow), e2e)
        layers = stats.per_layer(record, [])
        self.assertEqual(set(layers), set(stats.PER_LAYER))
        self.assertEqual(layers["sim.steps_per_op"], 100.0)
        self.assertEqual(layers["sim.est_ms_per_op"], 1.0)


if __name__ == "__main__":
    unittest.main()
