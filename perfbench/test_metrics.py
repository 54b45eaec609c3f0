#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic; no build needed.

    python3 perfbench/test_metrics.py
"""

import json
import math
import unittest
from pathlib import Path

import metrics
import run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
HZ = 7_372_800


def fake_raw(workload, trace):
    """A runner document shaped like bench.cpp's output for `workload`."""
    counters = {}
    det = {"attempted": 21, "failed": 0, "sim_cycles": 2 * HZ,
           "node_cycles": 2.0 * HZ, "nodes": 1, "digest": "00",
           "counters": counters, "install_cycles": [], "errors": []}
    raw = {"workload": workload, "clock_hz": HZ, "peak_rss_kb": 5000,
           "host": {"compiler": "c", "flags": "-O2", "build_type": "Rel",
                    "lto": "ON", "hardware_threads": 4, "workers": 1},
           "extra_setup_s": [0.001] * 199, "det": det, "nondeterminism": [],
           "seed_s": [], "event_quanta_share": None, "spans": [],
           "ref_ns": [metrics.REF_NS] * 3}
    layer = {"kernel_treesearch": "kernel", "netchaos_sweep": "chaos"}.get(
        workload, "net")
    if layer != "chaos":
        counters["codec.image_bytes"] = 4112
    if layer == "kernel":
        counters.update({"emu.instructions": 1000, "kernel.relocations": 3})
    elif layer == "net":
        det.update(attempted=128, nodes=129)
        det["install_cycles"] = [HZ * (i + 1) // 100 for i in range(128)]
        counters.update({"net.quanta": 5000, "net.rx_bytes": 9000,
                         "net.medium.offered": 10, "net.medium.delivered": 9,
                         "net.data_rx": 8, "net.duplicate_chunks": 2,
                         "net.medium.bytes_on_air": 777})
        raw["host"]["workers"] = 4
    else:
        det.update(attempted=100, failed=2)
        det["errors"] = ["net seed 53: x", "net seed 67: y"]
        counters.update({"chaos.violations": 2,
                         "chaos.violating_cycle_share": 0.5})
        raw["seed_s"] = [0.1 + i / 1000 for i in range(100)]
    sweep = layer == "chaos"
    passes = [{"setup_s": 0.002, "wall_s": 1.5, "traced": 0,
               "timed_s": 1.0 if sweep else 1.5,
               "seeds_s": 1.5 if sweep else 0.0,
               "violating_s": 0.5 if sweep else 0.0}]
    if trace:
        passes.append(dict(passes[0], wall_s=1.6, traced=1))
        run_span = "kernel.run" if layer == "kernel" else "net.run"
        raw["spans"] = [
            {"name": "pass", "parent": -1, "t0": 0.0, "t1": 2.0},
            {"name": "setup", "parent": 0, "t0": 0.0, "t1": 0.4},
            {"name": "assembler.build", "parent": 1, "t0": 0.0, "t1": 0.1},
            {"name": "rewriter.link", "parent": 1, "t0": 0.1, "t1": 0.3},
            {"name": "run", "parent": 0, "t0": 0.4, "t1": 2.0},
            {"name": run_span, "parent": 4, "t0": 0.4, "t1": 1.9},
        ]
        if layer == "net":
            raw["event_quanta_share"] = 0.25
    raw["passes"] = passes
    return raw


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(99))
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(128), 90.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        vals = list(range(1, 101))
        self.assertEqual(metrics.percentile(vals, 50), 50)
        self.assertEqual(metrics.percentile(vals, 90), 90)
        # Exactly ten samples (91..100) lie beyond the reported p90.
        self.assertEqual(sum(v > metrics.percentile(vals, 90) for v in vals),
                         10)
        self.assertEqual(metrics.percentile([3.0], 90), 3.0)

    def test_summary_reports_count_and_no_tail_when_too_few(self):
        t = metrics.timing_summary([1.0] * 50)
        self.assertEqual(t["n"], 50)
        self.assertIsNone(t["tail"])

    def test_median(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 2, 3]), 2.5)


class MissingInstalls(unittest.TestCase):
    def test_missing_is_not_a_sample(self):
        times = metrics.install_times([HZ, 2 * HZ, None, None, None], HZ)
        self.assertEqual(len(times), 5)
        # Dropping the missing receivers would give p50 = 1.5 s; counted,
        # they push the median beyond every finished install.
        self.assertEqual(metrics.percentile(times, 50), math.inf)

    def test_p90_reads_run_end_when_it_lands_on_a_missing_install(self):
        raw = fake_raw("ota_star128", trace=0)
        cycles = raw["det"]["install_cycles"]
        for i in range(100, 128):
            cycles[i] = None
        f = metrics.figures(raw)
        self.assertEqual(f["install_s.p90"], raw["det"]["sim_cycles"] / HZ)
        self.assertLess(f["install_s.p50"], 1.0)

    def test_missing_receiver_fails_the_ota_run(self):
        raw = fake_raw("ota_star128", trace=0)
        raw["det"]["install_cycles"][5] = None
        raw["det"]["failed"] = 1
        raw["det"]["errors"] = ["receiver 6 holds no verified image"]
        result, report = run.evaluate("ota_star128", raw, 0, [])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(report["figures"]["failed_frac"]["value"], 1 / 128)


class FailedFraction(unittest.TestCase):
    def test_numerator_and_denominator(self):
        self.assertEqual(metrics.failed_frac(100, 2), 0.02)
        self.assertEqual(metrics.failed_frac(21, 0), 0.0)
        with self.assertRaises(ValueError):
            metrics.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            metrics.failed_frac(10, 11)

    def test_counts_scale_with_passes(self):
        raw = fake_raw("netchaos_sweep", trace=1)
        result, report = run.evaluate("netchaos_sweep", raw, 1, [])
        self.assertEqual(result["attempted"], 200)
        self.assertEqual(result["failed"], 4)
        self.assertEqual(report["figures"]["failed_frac"]["value"], 0.02)
        # Violating seeds are failed operations, not an incorrect run...
        self.assertTrue(result["correct"])
        # ...but a determinism finding is.
        result, _ = run.evaluate("netchaos_sweep", raw, 1, ["digest differs"])
        self.assertFalse(result["correct"])

    def test_kernel_failure_is_fail_closed(self):
        raw = fake_raw("kernel_treesearch", trace=0)
        raw["det"]["failed"] = 1
        result, _ = run.evaluate("kernel_treesearch", raw, 0, [])
        self.assertFalse(result["correct"])


class Spans(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        raw = fake_raw("kernel_treesearch", trace=1)
        per_pass = metrics.span_totals(raw["spans"], 1)
        self.assertAlmostEqual(per_pass[0]["setup"]["total"], 0.4)
        self.assertAlmostEqual(per_pass[0]["setup"]["self"], 0.1)
        self.assertAlmostEqual(per_pass[0]["kernel.run"]["self"], 1.5)

    def test_overhead_is_traced_minus_untraced_wall(self):
        m = metrics.per_layer(fake_raw("kernel_treesearch", trace=1))
        self.assertAlmostEqual(m["trace.overhead_s"], 0.1)


class MetricNames(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))

    def test_every_workload_emits_exactly_the_listed_metrics(self):
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for w in run.WORKLOADS:
            for trace, want in ((0, e2e), (1, layer)):
                result, _ = run.evaluate(w, fake_raw(w, trace), trace, [])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w, trace))
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})

    def test_figures_name_every_end_to_end_figure_where_it_applies(self):
        common = {"wall_s", "setup_s", "setup_host_s", "peak_rss_mb",
                  "sim_s", "node_mcycles_per_s", "node_mcycles_per_host_s",
                  "ref_ns_per_op", "ref_scale", "failed_frac"}
        extra = {
            "kernel_treesearch": {"guest_mips"},
            "ota_star128": {"install_s.p50", "install_s.p90", "bytes_on_air"},
            "ota_grid128": {"install_s.p50", "install_s.p90", "bytes_on_air"},
            "netchaos_sweep": {"seeds_per_s", "seed_s.p50", "seed_s.p90"},
        }
        for w in run.WORKLOADS:
            self.assertEqual(set(metrics.figures(fake_raw(w, 0))),
                             common | extra[w], w)

    def test_throughput_is_all_passes_work_over_their_time(self):
        raw = fake_raw("kernel_treesearch", trace=0)
        raw["passes"] = [{"setup_s": 0.002, "wall_s": w, "timed_s": w,
                          "traced": 0} for w in (2.0, 1.0, 4.0)]
        raw["passes"].append(dict(raw["passes"][0], wall_s=9.0, timed_s=9.0,
                                  traced=1))
        f = metrics.figures(raw)
        self.assertEqual(f["wall_s"], 2.0)
        self.assertEqual(f["node_mcycles_per_host_s"],
                         3 * 2.0 * HZ / 7.0 / 1e6)
        self.assertEqual(f["guest_mips"], 3 * 1000 / 7.0 / 1e6)

    def test_sweep_throughput_counts_passing_seeds_only(self):
        # 1.0 of the pass's 1.5 s went to the seeds that passed, whose
        # cycles alone the runner counts in node_cycles.
        raw = fake_raw("netchaos_sweep", trace=1)
        self.assertEqual(metrics.figures(raw)["node_mcycles_per_host_s"],
                         2.0 * HZ / 1.0 / 1e6)
        m = metrics.per_layer(raw)
        self.assertEqual(m["chaos.violating_seed_s"], 0.5)
        self.assertAlmostEqual(m["chaos.violating_time_share"], 1 / 3)
        self.assertEqual(m["chaos.violating_cycle_share"], 0.5)
        # The sweep ships no toolchain image.
        self.assertEqual(m["codec.image_bytes"], 0.0)

    def test_emulator_workloads_are_in_reference_seconds(self):
        # The host ran the reference loop at 1.5x its nominal time: set-up
        # reads 1.5x shorter and the rate 1.5x higher than in host seconds,
        # on the workloads the probe tracks and on no other.
        for w in run.WORKLOADS:
            raw = fake_raw(w, trace=0)
            raw["ref_ns"] = [metrics.REF_NS * x for x in (1.4, 1.5, 3.0)]
            f = metrics.figures(raw)
            scale = 1.5 if w == "kernel_treesearch" else 1
            self.assertAlmostEqual(f["ref_scale"], scale, msg=w)
            self.assertAlmostEqual(f["setup_s"] * scale, f["setup_host_s"])
            self.assertAlmostEqual(f["node_mcycles_per_s"],
                                   scale * f["node_mcycles_per_host_s"])
            self.assertEqual(f["ref_ns_per_op"], 1.5 * metrics.REF_NS)
            raw["ref_ns"] = []
            with self.assertRaises(ValueError):
                metrics.figures(raw)

    def test_end_to_end_metrics_are_never_zero(self):
        for w in run.WORKLOADS:
            result, _ = run.evaluate(w, fake_raw(w, 0), 0, [])
            for name, v in result["metrics"].items():
                self.assertGreater(v["value"], 0, (w, name))


if __name__ == "__main__":
    unittest.main()
