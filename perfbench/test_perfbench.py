"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import bind, import_package  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_rung_with_ten_samples_beyond(self):
        self.assertIsNone(measure.tail_percentile(19))
        self.assertEqual(measure.tail_percentile(20), 50.0)
        self.assertEqual(measure.tail_percentile(99), 50.0)
        self.assertEqual(measure.tail_percentile(100), 90.0)
        self.assertEqual(measure.tail_percentile(199), 90.0)
        self.assertEqual(measure.tail_percentile(200), 95.0)
        self.assertEqual(measure.tail_percentile(999), 95.0)
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(measure.tail_percentile(10_000_000), 99.0)

    def test_at_least_ten_samples_beyond_the_reported_value(self):
        for count in (20, 57, 100, 350, 1000, 4321, 10_000, 123_457):
            rng = random.Random(count)
            values = sorted(rng.random() for _ in range(count))
            pct = measure.tail_percentile(count)
            value = measure.percentile(values, pct)
            self.assertGreaterEqual(sum(v > value for v in values), 10, count)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50.0), 50)
        self.assertEqual(measure.percentile(values, 90.0), 90)
        self.assertEqual(measure.percentile(values, 99.9), 100)

    def test_reservoir_keeps_everything_below_capacity_and_caps_above(self):
        small = measure.Reservoir(10, seed=1)
        for x in range(7):
            small.add(float(x))
        self.assertEqual(list(small.values), [float(x) for x in range(7)])
        big = measure.Reservoir(100, seed=1)
        for x in range(10_000):
            big.add(float(x))
        self.assertEqual((len(big.values), big.seen), (100, 10_000))


class SpeedScaling(unittest.TestCase):
    def test_times_are_scaled_by_the_mean_of_the_bracketing_probes(self):
        ref = measure.REFERENCE_SECONDS
        probes = iter([ref, 3 * ref, 2 * ref, ref])
        ticks = iter(range(100))
        scale = measure.SpeedScale(clock=lambda: float(next(ticks)),
                                   probe=lambda: next(probes))
        scale.add(4.0)
        scale.add(2.0)
        self.assertEqual(scale.flush(), [2.0, 1.0])  # factor 2 / (1 + 3)
        scale.add(5.0)
        self.assertEqual(scale.flush(), [2.0])       # factor 2 / (3 + 2)
        self.assertEqual(scale.probes, [3 * ref, 2 * ref])
        self.assertEqual(scale.flush(), [])

    def test_probe_is_due_after_the_interval(self):
        now = [0.0]
        scale = measure.SpeedScale(clock=lambda: now[0], probe=lambda: 1.0)
        self.assertFalse(scale.due())
        now[0] = measure.PROBE_INTERVAL
        self.assertTrue(scale.due())
        scale.flush()
        self.assertFalse(scale.due())


class SelfTime(unittest.TestCase):
    # op [0, 10] > cli.main [1, 9] > census.run_census [2, 8] >
    #   sets.enumerate_ra [3, 6] > sets.enumerate_ra_d [4, 5]; formulas.size_ra [6.5, 7]
    SPANS = [
        ["bench.op", 0.0, 10.0, -1, None],
        ["cli.main", 1.0, 9.0, 0, None],
        ["census.run_census", 2.0, 8.0, 1, None],
        ["sets.enumerate_ra", 3.0, 6.0, 2, 7],
        ["sets.enumerate_ra_d", 4.0, 5.0, 3, 3],
        ["formulas.size_ra", 6.5, 7.0, 2, None],
    ]

    def test_nested_self_times(self):
        self.assertEqual(tracing.self_times(self.SPANS), [2.0, 2.0, 2.5, 2.0, 1.0, 0.5])

    def test_layer_self_times_sum_to_the_op_time(self):
        layers = tracing.layer_self_times(self.SPANS)
        self.assertEqual(layers, {"bench": 2.0, "cli": 2.0, "census": 2.5,
                                  "sets": 3.0, "formulas": 0.5})
        self.assertEqual(sum(layers.values()), 10.0)

    def test_layer_metrics_count_calls_into_a_layer_once(self):
        metrics = tracing.layer_metrics(self.SPANS, ops=2)
        self.assertEqual(metrics["trace.op_s"], 5.0)
        self.assertEqual(metrics["sets.enumerate.s"], 1.5)       # enumerate_ra only
        self.assertEqual(metrics["sets.enumerate.points"], 3.5)
        self.assertEqual(metrics["sets.enumerate_ra_d.calls_per_op"], 0.5)
        self.assertEqual(metrics["formulas.size.calls"], 0.5)

    def test_tracer_records_parents_and_ignores_calls_outside_ops(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("sets.inner", lambda: [1, 2])
        outer = tracer.wrap("census.outer", lambda: inner())
        outer()
        self.assertEqual(tracer.spans, [])
        tracer.run(outer)
        self.assertEqual([(s[0], s[3]) for s in tracer.spans],
                         [("bench.op", -1), ("census.outer", 0), ("sets.inner", 1)])
        self.assertEqual(sum(tracing.layer_self_times(tracer.spans).values()),
                         tracer.spans[0][2] - tracer.spans[0][1])


class Instrumentation(unittest.TestCase):
    def setUp(self):
        self.pkg = import_package()

    def _snapshot(self):
        modules = [self.pkg.package, *self.pkg.modules.values()]
        snap = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        snap["enumerators"] = dict(self.pkg.sets.ENUMERATORS)
        snap["sizes"] = dict(self.pkg.formulas.SIZE_BY_SET)
        snap["to_csv"] = self.pkg.census.CensusReport.__dict__["to_csv"]
        return snap

    def test_wrappers_are_installed_where_names_are_looked_up(self):
        tracer = tracing.Tracer()
        patches = tracing.instrument(self.pkg.package, self.pkg.modules, tracer.wrap)
        try:
            cli, sets = self.pkg.cli, self.pkg.sets
            self.assertIs(cli.run_census, self.pkg.census.run_census)
            self.assertTrue(hasattr(cli.run_census, "__wrapped__"))
            self.assertTrue(hasattr(sets.ENUMERATORS[sets.NamedSet.RA_D], "__wrapped__"))
            verify = workloads.Op(kind="verify", check=bool, argvs=(["verify", "--n", "12"],))
            tracer.run(bind([verify], self.pkg)[0])
        finally:
            patches.restore()
        names = {span[0] for span in tracer.spans}
        self.assertTrue({"cli.main", "census.run_census", "census.check_disjointness",
                         "sets.enumerate_ra_d", "formulas.size_ra"} <= names)

    def test_restore_puts_every_original_back(self):
        before = self._snapshot()
        for wrap in (tracing.Tracer().wrap, tracing.alloc_wrapper([])):
            tracing.instrument(self.pkg.package, self.pkg.modules, wrap).restore()
            after = self._snapshot()
            self.assertEqual(before.keys(), after.keys())
            for key, value in before.items():
                if isinstance(value, dict):
                    self.assertEqual(after[key], value, key)
                else:
                    self.assertIs(after[key], value, key)


class Generation(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        pkg = import_package()
        first = workloads.census_sweep(pkg, random.Random(5), "unused")
        again = workloads.census_sweep(pkg, random.Random(5), "unused")
        other = workloads.census_sweep(pkg, random.Random(6), "unused")
        self.assertEqual([op.argvs for op in first], [op.argvs for op in again])
        self.assertNotEqual([op.argvs for op in first], [op.argvs for op in other])

    def test_census_windows_cover_all_residues(self):
        pkg = import_package()
        ops = workloads.census_sweep(pkg, random.Random(7), "unused")
        covered = {n % 6 for op in ops
                   for n in range(int(op.argvs[0][2]), int(op.argvs[0][4]) + 1)}
        self.assertEqual(covered, set(range(6)))

    def test_strata_partition_the_range(self):
        for power in (1.0, 3.0):
            cuts = workloads.strata(5, 298, 6, power)
            self.assertEqual(cuts[0][0], 5)
            self.assertEqual(cuts[-1][1], 298)
            for (_, hi), (lo, _) in zip(cuts, cuts[1:]):
                self.assertEqual(lo, hi + 1)


if __name__ == "__main__":
    unittest.main()
