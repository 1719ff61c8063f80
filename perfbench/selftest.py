"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Each output check is fed a deliberately corrupted result and must flag
it (and must pass the uncorrupted one); the input generator must be a
function of its seed; the self-time arithmetic is checked on a
hand-built span tree.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import random  # noqa: E402

import ribbonorders as ro  # noqa: E402
from ribbonorders.corpus import circular, line  # noqa: E402
from ribbonorders.quiver import disjoint_union  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Item  # noqa: E402


def fingerprint(items):
    """Everything an item hands to the package, as comparable text."""
    out = []
    for item in items:
        parts = []
        for a in item.args:
            if isinstance(a, ro.GentleQuiver):
                parts.append(ro.serialize_quiver(a))
            elif isinstance(a, ro.Polarization):
                parts.append(repr(sorted(a.signs.items())))
            else:
                parts.append(repr(a))
        out.append((item.kind, item.label, tuple(parts)))
    return out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for make in workloads.WORKLOADS.values():
            self.assertEqual(fingerprint(make(7)), fingerprint(make(7)))
            self.assertNotEqual(fingerprint(make(7)), fingerprint(make(8)))

    def test_profile_is_respected(self):
        rng = random.Random(3)
        for valencies, bipartite in workloads.SCALING_PROFILES:
            g = gen.random_ribbon_graph(rng, valencies, bipartite)
            self.assertEqual(sorted(len(g.slots[n]) for n in g.nodes), sorted(valencies))
            self.assertEqual(len(g.edges), sum(valencies) // 2)
            self.assertEqual(ro.is_bipartite(g).is_bipartite, bipartite)

    def test_relabel_is_isomorphic_and_renamed(self):
        q = gen.random_quiver(random.Random(5), (3, 3, 2))
        q2 = gen.relabel(random.Random(6), q)
        self.assertFalse(set(q.vertices) & set(q2.vertices))
        self.assertEqual(checks.check_arrow_map(q, q2, ro.quiver_isomorphism(q, q2)), [])


class DecisionCheckTest(unittest.TestCase):
    def setUp(self):
        self.q, self.f = line(2), ro.GF3
        self.rep, self.payload = workloads.run_item(Item("decide", "line2", (self.q, self.f, 0, "line2")))

    def flagged(self, rep=None, payload=None):
        return checks.check_decision(self.q, self.f, rep or self.rep, payload or self.payload)

    def test_uncorrupted_passes(self):
        self.assertEqual(self.rep.status("c2"), "true")
        self.assertEqual(self.rep.status("c5"), "true")
        self.assertEqual(self.flagged(), [])

    def test_lattice_violation_flagged(self):
        rep = dataclasses.replace(self.rep, consistency_ok=False, violations=["c1 true but c2 false"])
        self.assertTrue(self.flagged(rep))

    def test_c2_against_criterion_flagged(self):
        rep = copy.deepcopy(self.rep)
        rep.conditions["c2"].status = "false"
        self.assertTrue(any("bipartite-or-char-2" in p for p in self.flagged(rep)))

    def test_symmetric_without_witness_flagged(self):
        rep = copy.deepcopy(self.rep)
        del rep.conditions["c2"].evidence["witness"]
        self.assertTrue(any("witness" in p for p in self.flagged(rep)))

    def test_unverified_psi_flagged(self):
        rep = copy.deepcopy(self.rep)
        scales = rep.conditions["c5"].evidence["scales"]
        for a in scales:
            scales[a] = "1"  # the identity is not an isomorphism onto the plain quotient here
        self.assertTrue(any("scaling map" in p for p in self.flagged(rep)))

    def test_json_report_disagreement_flagged(self):
        payload = json.loads(json.dumps(self.payload))
        payload["conditions"]["c3"]["status"] = "false"
        self.assertTrue(self.flagged(payload=payload))


class OrderCheckTest(unittest.TestCase):
    def setUp(self):
        q = ro.corpus_quiver("triangle")
        eps = gen.random_polarization(random.Random(1), q)
        self.nu = ro.check_nu_symmetry(q, eps, ro.GF3)
        self.tp = ro.verify_theta_psi(q, eps, ro.GF3)

    def test_uncorrupted_passes(self):
        self.assertEqual(checks.check_nu(self.nu), [])
        self.assertEqual(checks.check_theta_psi(self.tp), [])

    def test_nu_failures_flagged(self):
        self.assertTrue(checks.check_nu(dataclasses.replace(self.nu, ok=False)))
        self.assertTrue(checks.check_nu(dataclasses.replace(self.nu, pairs_match=False)))

    def test_theta_psi_failure_flagged(self):
        self.assertTrue(checks.check_theta_psi(dataclasses.replace(self.tp, ok=False)))


class StructureCheckTest(unittest.TestCase):
    def setUp(self):
        self.q = ro.corpus_quiver("mixed")
        self.q2 = gen.relabel(random.Random(2), self.q)
        self.amap = ro.quiver_isomorphism(self.q, self.q2)

    def test_uncorrupted_passes(self):
        self.assertEqual(checks.check_arrow_map(self.q, self.q2, self.amap), [])
        result = workloads.run_item(Item("roundtrip", "mixed", (self.q,)))
        self.assertEqual(checks.check_roundtrip(self.q, *result), [])

    def test_swapped_arrow_images_flagged(self):
        bad = dict(self.amap)
        a, b = sorted(bad)[:2]
        bad[a], bad[b] = bad[b], bad[a]
        self.assertTrue(checks.check_arrow_map(self.q, self.q2, bad))

    def test_missing_map_flagged(self):
        self.assertTrue(checks.check_arrow_map(self.q, self.q2, None))

    def test_changed_round_trip_flagged(self):
        parsed, back, amap = workloads.run_item(Item("roundtrip", "mixed", (self.q,)))
        self.assertTrue(checks.check_roundtrip(self.q, ro.corpus_quiver("triangle"), back, amap))

    def test_negative_pair_with_map_flagged(self):
        item = Item("negative", "pair", (circular(2), disjoint_union(circular(1), circular(1))))
        self.assertEqual(checks.check_item(item, None), [])
        self.assertTrue(checks.check_item(item, {"a1": "L.a1"}))


class SpanArithmeticTest(unittest.TestCase):
    def tree(self):
        rec = spans.Recorder()
        i = rec.record(spans.ITEM_SPAN, 0.0, 11.0)
        a = rec.record("decide.decide", 0.0, 10.0, parent=i)
        b = rec.record("fdalg.socle", 1.0, 4.0, parent=a)
        rec.record("linalg.nullspace", 2.0, 3.0, parent=b)
        c = rec.record("fdalg.symmetric_forms", 5.0, 9.0, parent=a)
        rec.record("linalg.nullspace", 5.0, 6.0, parent=c)
        rec.record("linalg.det", 6.5, 8.0, parent=c)
        i = rec.record(spans.ITEM_SPAN, 12.0, 13.5)
        rec.record("order.multiply", 12.0, 13.0, parent=i)
        return rec

    def test_self_times_nested_and_sibling(self):
        rec = self.tree()
        self.assertEqual(spans.self_times(rec), [1.0, 3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 0.5, 1.0])
        self.assertEqual(spans.uncovered(rec, 0.0, 15.0), 2.5)

    def test_overlapping_children_counted_once(self):
        self.assertEqual(spans.covered([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(spans.covered([(0, 10)], 2, 5), 3)

    def test_layer_self_times_add_up_to_wall(self):
        rec = self.tree()
        values = spans.per_layer_metrics(rec, 0.0, 15.0, untraced_wall=11.0)
        self.assertEqual(spans.trace_problems(rec, values), [])
        self.assertEqual(values["bench.self_s"], 1.5)
        self.assertEqual(values["linalg.self_s"], 3.5)
        self.assertEqual(values["fdalg.self_s"], 3.5)
        self.assertEqual(values["linalg.nullspace.calls"], 2)
        self.assertEqual(values["fdalg.socle.s"], 3.0)
        self.assertEqual(values["trace.overhead_s"], 4.0)

    def test_every_declared_per_layer_metric_is_computed(self):
        values = spans.per_layer_metrics(self.tree(), 0.0, 15.0, untraced_wall=11.0)
        self.assertEqual([n for n, _ in spans.declared_per_layer() if n not in values], [])

    def test_open_orphan_and_backwards_spans_flagged(self):
        rec = self.tree()
        rec.record("fdalg.socle", 13.6, 14.0)  # outside every item span
        rec.record("linalg.det", 14.5, 14.2, parent=len(rec) - 1)  # ends before it starts
        rec.begin("decide.decide")  # never finished
        values = spans.per_layer_metrics(rec, 0.0, 15.0, untraced_wall=11.0)
        problems = " ".join(spans.trace_problems(rec, values))
        for expected in ("left open", "end before they start", "outside every item span"):
            self.assertIn(expected, problems)

    def test_accounting_mismatch_flagged(self):
        rec = self.tree()
        values = spans.per_layer_metrics(rec, 0.0, 15.0, untraced_wall=11.0)
        values["fdalg.self_s"] += 0.5  # time counted twice
        self.assertTrue(any("wall time" in p for p in spans.trace_problems(rec, values)))

    def test_begin_finish_nest_under_the_open_span(self):
        ticks = iter(range(100))
        rec = spans.Recorder(clock=lambda: float(next(ticks)))
        outer = rec.begin("decide.decide")
        inner = rec.begin("fdalg.socle")
        rec.finish(inner)
        rec.finish(outer)
        self.assertEqual(list(rec.parent), [-1, outer])
        self.assertEqual(spans.self_times(rec), [2.0, 1.0])


class ReferenceSpeedTest(unittest.TestCase):
    def test_times_scale_to_reference_speed(self):
        slow = [2 * run.REF_MS / 1000] * 3  # the host runs at half speed
        self.assertAlmostEqual(run.at_reference_speed(0.2, slow), 0.1)
        self.assertAlmostEqual(run.at_reference_speed(0.2, [run.REF_MS / 1000]), 0.2)

    def test_reference_block_runs_for_count_and_seconds(self):
        self.assertEqual(len(run.reference_times(3)), 3)
        self.assertGreaterEqual(sum(run.reference_times(seconds=0.01)), 0.01)

    def test_short_item_repeats_and_reports_time_per_repetition(self):
        item = Item("roundtrip", "line2", (line(2),))
        outcomes, latencies, start, end = run.run_pass([item], repeat=5)
        self.assertIsNone(outcomes[0][1])
        self.assertLessEqual(latencies[0] * 5, end - start)


class InstrumentationTest(unittest.TestCase):
    def test_install_wraps_importers_and_restores(self):
        fdalg = sys.modules["ribbonorders.fdalg"]
        decide = sys.modules["ribbonorders.decide"]
        original = fdalg.build_quotient_algebra
        rec = spans.Recorder()
        restore = spans.install(rec)
        try:
            self.assertIsNot(decide.build_quotient_algebra, original)
            self.assertIs(decide.build_quotient_algebra, fdalg.build_quotient_algebra)
            rec.active = True
            ro.decide(line(2), ro.GF3)
            rec.active = False
        finally:
            restore()
        self.assertIs(decide.build_quotient_algebra, original)
        summary = spans.summarize(rec)
        self.assertEqual(summary["decide.decide"]["calls"], 1)
        self.assertGreaterEqual(summary["fdalg.socle"]["calls"], 1)  # called inside the oracle

    def test_counting_field_counts_and_compares_equal(self):
        rec = spans.Recorder()
        twin = spans.counting_field(ro.GF3, rec)
        self.assertEqual(twin, ro.GF3)
        rec.active = True
        self.assertEqual(twin.div(1, 2), 2)
        self.assertEqual(rec.counts["fields.inv"], 1)
        self.assertEqual(rec.counts["fields.ops"], 3)  # div, inv, mul


if __name__ == "__main__":
    unittest.main()
