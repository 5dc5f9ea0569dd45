"""Self-tests for the benchmark harness (not for entgeo itself).

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import entgeo  # noqa: E402
import reference  # noqa: E402
from run import END_TO_END, percentile_allowed  # noqa: E402
from tracer import LayerTotals, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    LOG2,
    check_sweep,
    flat_sweep_mi,
    weighted_sweep_mi,
)


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(percentile_allowed(100, 0.9))
        self.assertFalse(percentile_allowed(99, 0.9))
        self.assertTrue(percentile_allowed(20, 0.5))
        self.assertFalse(percentile_allowed(19, 0.5))
        self.assertFalse(percentile_allowed(5, 0.9))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
        spans = [
            Span(0, -1, "root", 0.0, 10.0, 0, False),
            Span(1, 0, "a", 1.0, 4.0, 0, False),
            Span(2, 1, "c", 2.0, 3.0, 0, False),
            Span(3, 0, "b", 5.0, 9.0, 0, False),
        ]
        own = self_times(spans)
        self.assertEqual(own, {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
        totals = LayerTotals()
        self.assertEqual(totals.add(spans), 10.0)
        self.assertEqual(sum(totals.self_seconds.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            Span(0, -1, "root", 0.0, 10.0, 0, False),
            Span(1, 0, "a", 2.0, 6.0, 0, False),
            Span(2, 0, "b", 4.0, 8.0, 0, False),
        ]
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_same_name_nesting_counts_outermost_time(self):
        spans = [
            Span(0, -1, "f", 0.0, 4.0, 0, False),
            Span(1, 0, "f", 1.0, 2.0, 0, True),
        ]
        totals = LayerTotals()
        totals.add(spans)
        self.assertEqual(totals.calls["f"], 2)
        self.assertEqual(totals.seconds["f"], 4.0)
        self.assertEqual(totals.self_seconds["f"], 4.0)
        self.assertEqual(totals.errors, {"f": 1})


class Aliases(unittest.TestCase):
    def test_every_alias_feeds_one_span(self):
        from entgeo import cli, geometry, infotheory

        original = infotheory.mutual_information
        original_init = vars(entgeo.DensityMatrix)["__init__"]
        rho = entgeo.density_of(entgeo.bell_state())
        split = (("A",), ("B",))
        tracer = Tracer()
        with tracer:
            for fn in (entgeo.mutual_information, infotheory.mutual_information,
                       geometry.mutual_information, cli.mutual_information):
                self.assertAlmostEqual(fn(rho, split), 2 * LOG2)
            entgeo.DensityMatrix(rho.factors, rho.matrix)
        names = [sp.name for sp in tracer.take_spans()]
        self.assertEqual(names.count("infotheory.mutual_information"), 4)
        # 2 partial traces per MI, 1 explicit construction
        self.assertEqual(names.count("hilbert.DensityMatrix.init"), 9)
        for module in (entgeo, infotheory, geometry, cli):
            self.assertIs(module.mutual_information, original)
        self.assertIs(vars(entgeo.DensityMatrix)["__init__"], original_init)

    def test_classmethod_and_parents(self):
        tracer = Tracer()
        with tracer:
            tracer.op = 7
            entgeo.decoherence_sweep(
                entgeo.SchmidtPairState.flat(8, symbolic=False),
                entgeo.DecoherenceSchedule.ir_first(8, 2, "dephase"), 0.0,
                entgeo.neg_log_weight())
        spans = tracer.take_spans()
        by_name = {sp.name: sp for sp in spans}
        self.assertIn("channels.DecoherenceSchedule.ir_first", by_name)
        sweep = by_name["channels.decoherence_sweep"]
        inits = [sp for sp in spans if sp.name == "channels.BranchMixture.init"]
        self.assertEqual(len(inits), 2)
        self.assertTrue(all(sp.parent == sweep.sid and sp.op == 7 for sp in inits))
        self.assertEqual(tracer.counts["sweep_validated_modes"], 4 + 8)


class SweepOracle(unittest.TestCase):
    """The oracles agree with the library at 64 modes and 8 steps."""

    def _library(self, state, channel):
        pts = entgeo.decoherence_sweep(state, entgeo.DecoherenceSchedule.ir_first(64, 8, channel),
                                       2 * LOG2, entgeo.neg_log_weight())
        return ([p.momentum_mi for p in pts[1:]], [p.total_mi for p in pts[1:]],
                [p.distance for p in pts[1:]], pts[0].momentum_mi)

    def test_flat(self):
        for channel in ("localize", "dephase"):
            mom, total, dist, mom0 = self._library(
                entgeo.SchmidtPairState.flat(64, symbolic=False), channel)
            self.assertAlmostEqual(mom0, 2 * math.log(64), places=12)
            check_sweep(mom, total, dist, flat_sweep_mi(64, 8, channel), mom0)
        self.assertAlmostEqual(flat_sweep_mi(64, 8, "localize")[-1], 0.0, places=12)

    def test_weighted(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        w /= np.linalg.norm(w)
        for channel in ("localize", "dephase"):
            mom, total, dist, mom0 = self._library(
                entgeo.SchmidtPairState.from_weights(w), channel)
            check_sweep(mom, total, dist,
                        weighted_sweep_mi(np.abs(w) ** 2, 8, channel), mom0)


class ReferenceScale(unittest.TestCase):
    def test_scale_is_proportional_to_reference_speed(self):
        self.assertEqual(reference.scale(2.0, reference.UNIT_S), 2.0)
        self.assertAlmostEqual(reference.scale(2.0, 2.0 * reference.UNIT_S), 1.0)

    def test_gauge_runs_its_share(self):
        t0 = time.perf_counter()
        unit_s = reference.gauge(0.4)
        self.assertGreaterEqual(time.perf_counter() - t0, reference.SHARE * 0.4)
        self.assertGreater(unit_s, 0.0)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(layer_metrics()))
        for m in spec["end_to_end"] + spec["per_layer"]:
            units = END_TO_END.get(m["name"]) or layer_metrics()[m["name"]]
            self.assertEqual((m["unit"], m["better"]), units)


if __name__ == "__main__":
    unittest.main()
