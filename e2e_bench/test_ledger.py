"""Tests of the ledger's own arithmetic and metric names.

Run from the root of the repository:

    python3 -m unittest discover -s e2e_bench -p 'test_*.py'
"""

import json
import os
import unittest

import ledger

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "BENCHMARK.json")


def span(sid, name, start, end, parent=0, tid=1, **args):
    return {"id": sid, "parent": parent, "name": name, "cat": "t",
            "start": start, "end": end, "tid": tid, "args": args}


class TailPercentileTest(unittest.TestCase):

    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(ledger.tail_percentile(values), (99, 990, 1000))
        # 99.9 would leave one sample beyond it.
        self.assertEqual(ledger.tail_percentile(list(range(1, 101))),
                         (90, 90, 100))
        self.assertEqual(ledger.tail_percentile(list(range(1, 10001)))[:2],
                         (99.9, 9990))

    def test_exactly_ten_beyond_qualifies(self):
        # n = 20: the median is the 10th value, with 10 samples above it.
        self.assertEqual(ledger.tail_percentile(list(range(1, 21))),
                         (50, 10, 20))

    def test_too_few_samples_has_no_tail(self):
        self.assertEqual(ledger.tail_percentile(list(range(19))),
                         (None, None, 19))

    def test_unsorted_input(self):
        values = [5.0] * 90 + [1.0] * 10 + [100.0] * 10
        self.assertEqual(ledger.tail_percentile(values), (90, 5.0, 110))


class SelfTimeTest(unittest.TestCase):

    def tree(self):
        return [
            span(1, "root", 0, 100),
            span(2, "a", 10, 40, parent=1),
            span(3, "b", 30, 60, parent=1),   # overlaps a
            span(4, "c", 90, 120, parent=1),  # runs past its parent
            span(5, "a1", 15, 20, parent=2),
        ]

    def test_self_is_duration_minus_union_of_children(self):
        selfs = ledger.self_times(self.tree())
        # Children cover [10, 60) and [90, 100) of root.
        self.assertEqual(selfs[1], 40)
        self.assertEqual(selfs[2], 25)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[4], 30)
        self.assertEqual(selfs[5], 5)

    def test_other_thread_roots_join_the_innermost_enclosing_span(self):
        spans = self.tree() + [
            span(6, "server", 12, 18, tid=2),  # inside a, not inside a1
            span(7, "server", 16, 19, tid=2),  # inside a1
            span(8, "late", 200, 210, tid=2),  # inside nothing
        ]
        ledger.adopt_orphans(spans, main_tid=1)
        by_id = {s["id"]: s for s in spans}
        self.assertEqual(by_id[6]["parent"], 2)
        self.assertEqual(by_id[7]["parent"], 5)
        self.assertEqual(by_id[8]["parent"], 0)
        selfs = ledger.self_times(spans)
        self.assertEqual(selfs[2], 30 - 8)  # [12, 20) covered
        self.assertEqual(selfs[5], 5 - 3)

    def test_layer_table_sums_by_name(self):
        spans = self.tree()
        rows = ledger.layer_table(spans, ledger.self_times(spans))
        self.assertEqual(rows[0], ("root", "t", 1, 100, 40))
        self.assertEqual({r[0]: r[2] for r in rows}["a1"], 1)

    def test_uncovered_share_of_a_phase(self):
        spans = [
            span(1, "Replayer::Open", 0, 10, phase="replay_inc"),
            span(2, "replay.init", 1, 10, parent=1),
            span(3, "Replayer::Run", 10, 100, phase="replay_inc"),
            span(4, "replay.run", 10, 100, parent=3),
            span(5, "Replayer::Open", 0, 10, phase="replay_exc"),
        ]
        selfs = ledger.self_times(spans)
        self.assertAlmostEqual(
            ledger.uncovered_share(spans, selfs, "replay_inc"), 0.01)
        self.assertEqual(ledger.uncovered_share(spans, selfs, "replay_exc"),
                         1.0)


def synthetic_raw():
    """Raw ldv_e2e output with a sample for every metric the ledger reads."""
    def iteration(traced):
        values = {name: [1.0, 2.0, 3.0] for name, _, _ in ledger.END_TO_END}
        values.update({name: [2.0] for name, _, _ in ledger._MEDIAN_LAYER})
        values["factor.audit_inc"] = [1.5]
        for phase in ("plain", "audit_inc"):
            for kind in ("insert", "update"):
                values["stmt.%s.%s_us" % (phase, kind)] = [
                    float(i) for i in range(1, 101)]
        return {"traced": traced, "values": values}
    return {"attempted": 10, "failed": 0,
            "iterations": [iteration(False), iteration(True)]}


def synthetic_trace():
    spans = []
    for i, phase in enumerate(ledger.TRACED_PHASES):
        base = 1000 * i
        if phase.startswith("audit"):
            spans.append(span(10 * i + 1, "Auditor::Run", base, base + 100,
                              phase=phase))
            spans.append(span(10 * i + 2, "audit.statement", base + 1,
                              base + 99, parent=10 * i + 1))
        else:
            spans.append(span(10 * i + 1, "Replayer::Open", base, base + 50,
                              phase=phase))
            spans.append(span(10 * i + 3, "Replayer::Run", base + 50,
                              base + 100, phase=phase))
    return spans


class PeakRssTest(unittest.TestCase):

    def test_probe_iterations_count_only_when_there_is_nothing_else(self):
        raw = synthetic_raw()
        plain = [it for it in raw["iterations"] if not it["traced"]]
        plain[0]["values"]["peak_rss_with_probe_mb"] = [9.0]
        self.assertEqual(ledger.end_to_end(raw, plain)["peak_rss_mb"], 2.0)
        del plain[0]["values"]["peak_rss_mb"]
        self.assertEqual(ledger.end_to_end(raw, plain)["peak_rss_mb"], 9.0)


class MetricNameTest(unittest.TestCase):

    def setUp(self):
        with open(BENCHMARK_JSON) as f:
            self.bench = json.load(f)

    def test_tables_match_benchmark_json(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["end_to_end"]],
            list(ledger.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["per_layer"]],
            list(ledger.PER_LAYER))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(ledger.WORKLOADS))

    def test_names_use_allowed_characters_once(self):
        names = [m for m, _, _ in ledger.END_TO_END + ledger.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names + list(ledger.WORKLOADS):
            self.assertLessEqual(len(name), 64, name)
            self.assertTrue(name[0].isalnum(), name)
            self.assertLessEqual(set(name), ledger.NAME_CHARS, name)

    def test_printed_metrics_are_exactly_the_declared_ones(self):
        raw = synthetic_raw()
        figures, _ = ledger.analyze_trace(synthetic_trace())
        e2e, layer, _ = ledger.assemble(raw, figures)
        for metrics, table in ((e2e, ledger.END_TO_END),
                               (layer, ledger.PER_LAYER)):
            line = ledger.result_line(raw, metrics, table)
            self.assertEqual(list(line), ["correct", "attempted", "failed",
                                          "metrics"])
            self.assertEqual(list(line["metrics"]),
                             [name for name, _, _ in table])
            json.dumps(line)  # serializable
        self.assertEqual(e2e["plain_s"], 2.0)
        self.assertEqual(e2e["success_rate"], 1.0)
        self.assertEqual(layer["stmt.plain.insert_tail_us"], 90.0)
        self.assertAlmostEqual(layer["trace.uncovered.audit_inc"], 0.02)
        self.assertAlmostEqual(layer["audit.inc.self_s"], 98e-6 * 1.5)
        self.assertEqual(layer["tracing.overhead.plain_s"], 1.0)


if __name__ == "__main__":
    unittest.main()
