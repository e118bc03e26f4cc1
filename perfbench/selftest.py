"""Toy-size self-test of the benchmark harness; not part of the tier-1 suite.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import time
import unittest

import speed
import tracing
import workloads
from workloads import WORKLOADS, OutputCheck, baseline_config, write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench-out")


def scratch_dir():
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


class ConfigGeneratorTest(unittest.TestCase):
    def test_same_seed_same_config(self):
        self.assertEqual(json.dumps(baseline_config(50, 3)), json.dumps(baseline_config(50, 3)))

    def test_other_seed_other_config(self):
        self.assertNotEqual(baseline_config(50, 3)["atoms"], baseline_config(50, 4)["atoms"])

    def test_instance_seeds_are_distinct_across_seeds(self):
        self.assertEqual(workloads.instance_seeds(WORKLOADS["profile_n1000"], 7), [7])
        seeds = [s for seed in range(10) for s in workloads.instance_seeds(WORKLOADS["verify_ensemble"], seed)]
        self.assertEqual(len(seeds), len(set(seeds)))

    def test_baseline_ranges(self):
        atoms = baseline_config(200, 0)["atoms"]
        pos = [a["position"] for a in atoms]
        self.assertEqual(pos, sorted(pos))
        self.assertTrue(all(-10.0 <= p <= 10.0 for p in pos))
        self.assertTrue(all(0.01 / 200 <= a["mass"] <= 2.0 / 200 for a in atoms))
        self.assertTrue(all(-2.0 <= a["velocity"] <= 2.0 for a in atoms))

    def test_written_config_round_trips(self):
        config = baseline_config(20, 7, extra={"n_instances": 3, "seed": 11})
        with scratch_dir() as tmp:
            path = os.path.join(tmp, "config.json")
            write_config(path, config)
            with open(path, encoding="utf-8") as fh:
                self.assertEqual(json.load(fh), config)


def _continuity_rows(m, q, e):
    name = workloads.CONTINUITY_REPORT
    return [
        {"check": name, "series": series, "level": str(2.0 ** -k), "residual": str(r)}
        for series, values in (("m", m), ("q", q), ("E", e))
        for k, r in enumerate(values, start=1)
    ]


# two atoms 1 apart, speed 4, total mass 1: frozen while 4 t + t^2 < 0.5,
# so at the levels 1/16 and below
_TWO_ATOMS = {"atoms": [{"position": 0.0, "mass": 0.5, "velocity": 4.0}, {"position": 1.0, "mass": 0.5, "velocity": 0.0}]}


class ContinuityCheckTest(unittest.TestCase):
    def test_frozen_time(self):
        self.assertAlmostEqual(workloads._frozen_until(_TWO_ATOMS), (18.0**0.5 - 4.0) / 2.0)

    def test_growing_series_are_known_defects_not_failures(self):
        chk = OutputCheck()
        rows = _continuity_rows([0.1, 0.2, 0.0, 0.0], [4, 5, 1, 1], [4, 2, 1, 1])
        workloads._check_continuity(rows, False, _TWO_ATOMS, chk)
        self.assertEqual((chk.attempted, chk.failed, chk.problems), (1, 0, []))
        name = workloads.CONTINUITY_REPORT
        self.assertEqual(chk.known_defects, {f"{name}.m": False, f"{name}.q": False, f"{name}.E": True})

    def test_mass_moving_at_a_frozen_level_is_a_failed_operation(self):
        chk = OutputCheck()
        rows = _continuity_rows([0.4, 0.2, 0.1, 0.05], [4, 2, 1, 1], [4, 2, 1, 1])
        workloads._check_continuity(rows, True, _TWO_ATOMS, chk)
        self.assertEqual((chk.attempted, chk.failed), (1, 1))

    def test_verdict_must_agree_with_the_series(self):
        chk = OutputCheck()
        rows = _continuity_rows([0.4, 0.0, 0.0, 0.0], [4, 2, 1, 1], [4, 2, 1, 1])
        workloads._check_continuity(rows, False, _TWO_ATOMS, chk)
        self.assertEqual(chk.failed, 0)
        self.assertEqual(len(chk.problems), 1)


def _span(name, start, end, parent):
    return [name, start, end, parent]


class SelfTimeTest(unittest.TestCase):
    # cli.main [0, 10]
    #   euler_poisson.sample [1, 4]
    #     potentials.argmin [2, 3]
    #   oracle.simulate_ep [5, 6]
    #   oracle.state_at [6, 7.5]
    # cli.main [11, 12]
    SPANS = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("euler_poisson.sample", 1.0, 4.0, 0),
        _span("potentials.argmin", 2.0, 3.0, 1),
        _span("oracle.simulate_ep", 5.0, 6.0, 0),
        _span("oracle.state_at", 6.0, 7.5, 0),
        _span("cli.main", 11.0, 12.0, -1),
    ]

    def test_nested_self_times(self):
        got = tracing.self_times(self.SPANS)
        self.assertEqual(got, [10.0 - 3.0 - 2.5, 2.0, 1.0, 1.0, 1.5, 1.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [
            _span("cli.main", 0.0, 10.0, -1),
            _span("oracle.simulate_ep", 5.0, 6.0, 0),
            _span("oracle.state_at", 5.5, 7.0, 0),
        ]
        self.assertEqual(tracing.self_times(spans)[0], 8.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span("cli.main", 0.0, 2.0, -1), _span("oracle.state_at", 1.5, 3.0, 0)]
        self.assertEqual(tracing.self_times(spans), [1.5, 1.5])

    def test_module_self_times_add_up_to_wall(self):
        metrics = tracing.layer_metrics(self.SPANS, {}, wall_s=13.0)
        self.assertEqual(metrics["cli.self_s"], 5.5)
        self.assertEqual(metrics["euler_poisson.self_s"], 2.0)
        self.assertEqual(metrics["oracle.self_s"], 2.5)
        self.assertEqual(metrics["trace.remainder_s"], 2.0)
        total = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES) + metrics["trace.remainder_s"]
        self.assertAlmostEqual(total, 13.0, places=12)
        self.assertEqual(metrics["cli.main.calls"], 2)
        self.assertEqual(metrics["cli.main.s"], 11.0)

    def test_quadrature_nodes_count_state_at_under_weak_form_only(self):
        spans = [
            _span("validate.check_weak_form", 0.0, 5.0, -1),
            _span("oracle.simulate_ep", 0.5, 1.0, 0),
            _span("oracle.state_at", 1.0, 2.0, 0),
            _span("oracle.state_at", 2.0, 3.0, 0),
            _span("cli.cmd_oracle", 6.0, 7.0, -1),
            _span("oracle.state_at", 6.0, 6.5, 4),
        ]
        self.assertEqual(tracing.layer_metrics(spans, {}, 7.0)["validate.quadrature_nodes"], 2)


class SpeedTest(unittest.TestCase):
    def test_reference_time_uses_mean_speed_outside_the_sampler(self):
        region = speed.Region()
        region.wall_s, region.sampler_s = 3.0, 1.0
        region.kernel_s = [speed.REF_S, speed.REF_S / 3.0]
        self.assertAlmostEqual(region.ref_s, 4.0)

    def test_sampler_samples_inside_and_around_a_region(self):
        sampler = speed.SpeedSampler()
        with sampler.region() as region:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        self.assertGreater(len(region.kernel_s), 2 * speed.EDGE_SAMPLES)
        self.assertGreater(region.sampler_s, 0.0)
        self.assertLess(region.sampler_s, region.wall_s)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]}, tracing.per_layer_units()
        )
        self.assertEqual(
            {m["name"] for m in bench["end_to_end"]}, {"wall_s", "setup_s", "peak_rss_mb"}
        )


@unittest.skipUnless(os.path.isdir(os.path.join(ROOT, "src", "stickygas")), "needs src/stickygas")
class TracerWiringTest(unittest.TestCase):
    def test_traces_every_binding_and_restores(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from stickygas import cli, euler_poisson

        original = cli.sample
        tracer = tracing.Tracer()
        with scratch_dir() as tmp:
            config = baseline_config(5, 0, grid_count=3, times=(0.5,))
            path = os.path.join(tmp, "config.json")
            write_config(path, config)
            with tracer.installed():
                self.assertEqual(cli.main(["solve", "--config", path, "--out", tmp]), 0)
        self.assertIs(cli.sample, original)
        self.assertIs(euler_poisson.sample, original)
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts, wall_s=1e9)
        self.assertEqual(metrics["euler_poisson.sample.calls"], 3)
        self.assertEqual(metrics["potentials.frame_build.calls"], 3)
        self.assertEqual(metrics["measure.from_atoms.calls"], 1)
        self.assertEqual(metrics["cli.write_csv.calls"], 1)
        self.assertGreater(metrics["cli.csv_bytes"], 0)
        parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
        self.assertEqual(parents["euler_poisson.sample"], "cli.cmd_solve")
        self.assertEqual(parents["potentials.frame_build"], "euler_poisson.sample")


if __name__ == "__main__":
    unittest.main()
