#!/usr/bin/env python3
"""Exit-code contract tests for perf_diff.py, run via ctest.

The CI perf job depends on the split semantics: `--mode identity` is a
hard gate (exit 1 on any run-identity drift), `--mode timing` is
informational (exit 0 regardless of deltas, unless --fail_above).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "perf_diff.py")

_BASELINE = {
    "hac": {"rounds": 12, "merges": 340, "hac_seconds": 1.0},
    "crossover_entities": -1.0,
    "sweep": [
        {"entities": 500, "build_seconds": 0.5, "edges": 9000},
        {"entities": 1000, "build_seconds": 1.5, "edges": 21000},
    ],
}

# A BENCH_serving.json-shaped document: endpoint rows aligned by "name",
# with identity leaves (errors, index_version) next to timing leaves,
# plus the open-loop quantile section the latency mode gates.
_SERVING = {
    "bench": "bench_serving",
    "index_version": 1,
    "endpoints": [
        {"name": "/v1/query", "errors": 0, "qps": 50000.0, "p50_us": 20.0,
         "p90_us": 31.0, "p99_us": 40.0, "p999_us": 55.0},
        {"name": "/healthz", "errors": 0, "qps": 90000.0, "p50_us": 8.0,
         "p90_us": 12.0, "p99_us": 15.0, "p999_us": 19.0},
    ],
    "open_loop": {
        "rate_per_sec": 2000.0, "duration_sec": 5.0, "connections": 4,
        "requests": 10000, "errors": 0, "achieved_rps": 1998.0,
        "p50_us": 120.0, "p90_us": 340.0, "p99_us": 900.0,
        "p999_us": 2400.0, "max_us": 3100.0,
    },
}


# A BENCH_incremental.json-shaped document: per-tier daemon-vs-rebuild
# rows with the stability/speedup leaves the incremental mode gates,
# per-cycle breakdowns keyed by "day", and the deterministic counter
# leaves the identity mode pins.
_INCREMENTAL = {
    "bench": "bench_incremental",
    "seed": 2019,
    "window_days": 3,
    "sizes": [
        {"entities": 5000, "full_rebuild_seconds": 1.1,
         "incremental_seconds": 0.28, "speedup": 3.9, "stability": 0.9995,
         "graph_identical": 1, "thread_identical": 1,
         "cycles": [
             {"day": 3, "incremental_seconds": 0.28, "stability": 0.9995,
              "delta_entries": 2344, "dirty_entities": 414,
              "num_topics": 2076, "touched_topics": 202,
              "carried_topics": 1874, "untouched_topics": 1875,
              "stable_topics": 1874},
             {"day": 4, "incremental_seconds": 0.27, "stability": 1.0,
              "delta_entries": 2310, "dirty_entities": 380,
              "num_topics": 2080, "touched_topics": 190,
              "carried_topics": 1890, "untouched_topics": 1890,
              "stable_topics": 1890},
         ]},
        {"entities": 20000, "full_rebuild_seconds": 5.1,
         "incremental_seconds": 0.75, "speedup": 6.8, "stability": 0.9777,
         "graph_identical": 1, "thread_identical": 1,
         "cycles": [
             {"day": 3, "incremental_seconds": 0.75, "stability": 0.9777,
              "delta_entries": 5600, "dirty_entities": 2100,
              "num_topics": 8300, "touched_topics": 900,
              "carried_topics": 7400, "untouched_topics": 7410,
              "stable_topics": 7245},
         ]},
    ],
}


def _with(base, **updates):
    doc = json.loads(json.dumps(base))
    for dotted, value in updates.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[int(key)] if key.isdigit() else node[key]
        node[leaf] = value
    return doc


class PerfDiffExitCodes(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory(prefix="shoal_perf_diff_")
        self.addCleanup(self._dir.cleanup)

    def _write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def _run(self, old, new, *flags):
        return subprocess.run(
            [sys.executable, _SCRIPT, self._write("old.json", old),
             self._write("new.json", new), *flags],
            capture_output=True, text=True)

    def test_identical_runs_pass_every_mode(self):
        for mode in ("all", "identity", "timing"):
            result = self._run(_BASELINE, _BASELINE, "--mode", mode)
            self.assertEqual(result.returncode, 0, result.stdout)

    def test_timing_drift_is_informational(self):
        slower = _with(_BASELINE, **{"hac.hac_seconds": 97.0,
                                     "sweep.0.build_seconds": 42.0})
        for mode in ("all", "identity", "timing"):
            result = self._run(_BASELINE, slower, "--mode", mode)
            self.assertEqual(result.returncode, 0, result.stdout)
        result = self._run(_BASELINE, slower, "--mode", "timing")
        self.assertIn("hac_seconds", result.stdout)

    def test_identity_drift_fails_identity_and_all(self):
        drifted = _with(_BASELINE, **{"hac.merges": 341})
        for mode, expected in (("identity", 1), ("all", 1), ("timing", 0)):
            result = self._run(_BASELINE, drifted, "--mode", mode)
            self.assertEqual(result.returncode, expected,
                             f"mode={mode}: {result.stdout}")
        result = self._run(_BASELINE, drifted, "--mode", "identity")
        self.assertIn("IDENTITY MISMATCH", result.stdout)
        self.assertIn("merges", result.stdout)

    def test_missing_identity_leaf_fails(self):
        pruned = json.loads(json.dumps(_BASELINE))
        del pruned["hac"]["rounds"]
        result = self._run(_BASELINE, pruned, "--mode", "identity")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("missing from candidate", result.stdout)

    def test_keyed_array_rows_align_despite_reordering(self):
        reordered = json.loads(json.dumps(_BASELINE))
        reordered["sweep"].reverse()
        result = self._run(_BASELINE, reordered, "--mode", "identity")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_fail_above_gates_timing_regressions(self):
        slower = _with(_BASELINE, **{"hac.hac_seconds": 2.0})
        ok = self._run(_BASELINE, slower, "--mode", "timing",
                       "--fail_above", "150")
        self.assertEqual(ok.returncode, 0, ok.stdout)
        bad = self._run(_BASELINE, slower, "--mode", "timing",
                        "--fail_above", "50")
        self.assertEqual(bad.returncode, 1, bad.stdout)
        self.assertIn("FAIL", bad.stdout)

    def test_serving_timing_drift_is_informational(self):
        slower = _with(_SERVING, **{"endpoints.0.qps": 20000.0,
                                    "endpoints.1.p99_us": 80.0})
        result = self._run(_SERVING, slower, "--mode", "identity")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_serving_errors_and_version_are_identity(self):
        erroring = _with(_SERVING, **{"endpoints.0.errors": 3})
        result = self._run(_SERVING, erroring, "--mode", "identity")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("errors", result.stdout)

        reversioned = _with(_SERVING, **{"index_version": 2})
        result = self._run(_SERVING, reversioned, "--mode", "identity")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("index_version", result.stdout)

    def test_serving_missing_endpoint_is_identity_failure(self):
        pruned = json.loads(json.dumps(_SERVING))
        del pruned["endpoints"][1]
        result = self._run(_SERVING, pruned, "--mode", "identity")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("healthz", result.stdout)

    def test_speedups_never_fail(self):
        faster = _with(_BASELINE, **{"hac.hac_seconds": 0.1})
        result = self._run(_BASELINE, faster, "--mode", "all",
                           "--fail_above", "5")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_message_economy_fields_are_identity(self):
        # crossover_entities joins the hard gate: it is a deterministic
        # function of the run, so any drift is an identity failure in
        # the default CI comparison.
        crossed = _with(_BASELINE, **{"crossover_entities": 500.0})
        result = self._run(_BASELINE, crossed, "--mode", "identity")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("crossover_entities", result.stdout)

    def test_latency_mode_values_are_informational(self):
        # Hardware-dependent quantile drift passes without a bound...
        slower = _with(_SERVING, **{"open_loop.p99_us": 5000.0,
                                    "endpoints.0.p999_us": 400.0})
        result = self._run(_SERVING, slower, "--mode", "latency")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("p99_us", result.stdout)
        # ...and identity drift is not latency's job.
        drifted = _with(_SERVING, **{"endpoints.0.errors": 7})
        result = self._run(_SERVING, drifted, "--mode", "latency")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_latency_mode_missing_quantile_exits_4(self):
        pruned = json.loads(json.dumps(_SERVING))
        del pruned["open_loop"]["p999_us"]
        result = self._run(_SERVING, pruned, "--mode", "latency")
        self.assertEqual(result.returncode, 4, result.stdout)
        self.assertIn("LATENCY COVERAGE REGRESSION", result.stdout)
        self.assertIn("p999_us", result.stdout)

    def test_latency_mode_missing_section_exits_4(self):
        pruned = json.loads(json.dumps(_SERVING))
        del pruned["open_loop"]
        result = self._run(_SERVING, pruned, "--mode", "latency")
        self.assertEqual(result.returncode, 4, result.stdout)
        self.assertIn("missing from candidate", result.stdout)

    def test_latency_fail_above_gates_regressions(self):
        slower = _with(_SERVING, **{"open_loop.p99_us": 1350.0})  # +50%
        ok = self._run(_SERVING, slower, "--mode", "latency",
                       "--latency_fail_above", "100")
        self.assertEqual(ok.returncode, 0, ok.stdout)
        bad = self._run(_SERVING, slower, "--mode", "latency",
                        "--latency_fail_above", "25")
        self.assertEqual(bad.returncode, 4, bad.stdout)
        self.assertIn("LATENCY REGRESSION", bad.stdout)

    def test_latency_gate_quantiles_scopes_the_growth_gate(self):
        # Tail blows up, median holds: gating p50 only must pass...
        tail_blip = _with(_SERVING, **{"open_loop.p999_us": 99999.0})
        ok = self._run(_SERVING, tail_blip, "--mode", "latency",
                       "--latency_fail_above", "100",
                       "--latency_gate_quantiles", "p50_us")
        self.assertEqual(ok.returncode, 0, ok.stdout)
        # ...a median collapse must still fail...
        slow_p50 = _with(_SERVING, **{"open_loop.p50_us":
                                      _SERVING["open_loop"]["p50_us"] * 40})
        bad = self._run(_SERVING, slow_p50, "--mode", "latency",
                        "--latency_fail_above", "100",
                        "--latency_gate_quantiles", "p50_us")
        self.assertEqual(bad.returncode, 4, bad.stdout)
        self.assertIn("p50_us", bad.stdout)
        # ...and coverage still covers the ungated quantiles.
        pruned = json.loads(json.dumps(_SERVING))
        del pruned["open_loop"]["p999_us"]
        cov = self._run(_SERVING, pruned, "--mode", "latency",
                        "--latency_fail_above", "100",
                        "--latency_gate_quantiles", "p50_us")
        self.assertEqual(cov.returncode, 4, cov.stdout)
        self.assertIn("LATENCY COVERAGE REGRESSION", cov.stdout)

    def test_latency_floor_waives_subfloor_regressions(self):
        # +900% but still under the floor: runner noise, not a stall.
        blip = _with(_SERVING, **{"open_loop.p99_us":
                                  _SERVING["open_loop"]["p99_us"] * 10})
        ok = self._run(_SERVING, blip, "--mode", "latency",
                       "--latency_fail_above", "400",
                       "--latency_gate_quantiles", "p99_us",
                       "--latency_floor_us",
                       str(_SERVING["open_loop"]["p99_us"] * 20))
        self.assertEqual(ok.returncode, 0, ok.stdout)
        # The same growth past the floor fails.
        bad = self._run(_SERVING, blip, "--mode", "latency",
                        "--latency_fail_above", "400",
                        "--latency_gate_quantiles", "p99_us",
                        "--latency_floor_us",
                        str(_SERVING["open_loop"]["p99_us"] * 5))
        self.assertEqual(bad.returncode, 4, bad.stdout)
        self.assertIn("LATENCY REGRESSION", bad.stdout)

    def test_latency_mode_speedups_and_new_coverage_pass(self):
        faster = _with(_SERVING, **{"open_loop.p99_us": 10.0})
        faster["open_loop"]["p95_us"] = 9.0  # extra leaf, not gated
        result = self._run(_SERVING, faster, "--mode", "latency",
                           "--latency_fail_above", "5")
        self.assertEqual(result.returncode, 0, result.stdout)


    def test_incremental_mode_passes_within_floors(self):
        result = self._run(_INCREMENTAL, _INCREMENTAL,
                           "--mode", "incremental")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("stability", result.stdout)
        # Improvements pass too.
        better = _with(_INCREMENTAL, **{"sizes.1.speedup": 9.0,
                                        "sizes.1.stability": 1.0})
        result = self._run(_INCREMENTAL, better, "--mode", "incremental")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_incremental_stability_below_floor_exits_6(self):
        # Tier minimum and per-cycle stability leaves are both gated.
        for leaf in ("sizes.1.stability", "sizes.0.cycles.1.stability"):
            eroded = _with(_INCREMENTAL, **{leaf: 0.90})
            result = self._run(_INCREMENTAL, eroded, "--mode", "incremental")
            self.assertEqual(result.returncode, 6,
                             f"{leaf}: {result.stdout}")
            self.assertIn("INCREMENTAL REGRESSION", result.stdout)
        # The same value passes under an explicitly lowered floor.
        eroded = _with(_INCREMENTAL, **{"sizes.1.stability": 0.90})
        ok = self._run(_INCREMENTAL, eroded, "--mode", "incremental",
                       "--min_stability", "0.85")
        self.assertEqual(ok.returncode, 0, ok.stdout)

    def test_incremental_speedup_floor_gates_large_tiers_only(self):
        # The paper-scale tier is gated at --min_speedup...
        slowed = _with(_INCREMENTAL, **{"sizes.1.speedup": 3.0})
        result = self._run(_INCREMENTAL, slowed, "--mode", "incremental")
        self.assertEqual(result.returncode, 6, result.stdout)
        self.assertIn("speedup", result.stdout)
        # ...while the small tier, where fixed per-cycle costs dominate,
        # diffs informationally.
        small = _with(_INCREMENTAL, **{"sizes.0.speedup": 1.2})
        result = self._run(_INCREMENTAL, small, "--mode", "incremental")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("informational", result.stdout)
        # Raising the gating threshold waives the large tier as well.
        waived = self._run(_INCREMENTAL, slowed, "--mode", "incremental",
                           "--speedup_min_entities", "50000")
        self.assertEqual(waived.returncode, 0, waived.stdout)

    def test_incremental_missing_coverage_exits_6(self):
        # Dropping a tier means the bench silently stopped measuring.
        pruned = json.loads(json.dumps(_INCREMENTAL))
        del pruned["sizes"][0]
        result = self._run(_INCREMENTAL, pruned, "--mode", "incremental")
        self.assertEqual(result.returncode, 6, result.stdout)
        self.assertIn("INCREMENTAL COVERAGE REGRESSION", result.stdout)
        # So does dropping a measured cycle's stability leaf.
        pruned = json.loads(json.dumps(_INCREMENTAL))
        del pruned["sizes"][0]["cycles"][1]["stability"]
        result = self._run(_INCREMENTAL, pruned, "--mode", "incremental")
        self.assertEqual(result.returncode, 6, result.stdout)
        self.assertIn("missing from candidate", result.stdout)

    def test_incremental_mode_ignores_timing_and_counters(self):
        # Counter drift is identity's job; wall-clock drift that leaves
        # the speedup ratio intact is nobody's.
        drifted = _with(_INCREMENTAL,
                        **{"sizes.0.cycles.0.delta_entries": 1,
                           "sizes.1.full_rebuild_seconds": 99.0})
        result = self._run(_INCREMENTAL, drifted, "--mode", "incremental")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_incremental_counters_are_identity(self):
        for leaf, value in (("sizes.0.cycles.0.delta_entries", 1),
                            ("sizes.0.cycles.1.carried_topics", 2),
                            ("sizes.1.graph_identical", 0),
                            ("sizes.1.thread_identical", 0)):
            drifted = _with(_INCREMENTAL, **{leaf: value})
            result = self._run(_INCREMENTAL, drifted, "--mode", "identity")
            self.assertEqual(result.returncode, 1,
                             f"{leaf}: {result.stdout}")

    def test_incremental_cycle_rows_align_by_day_despite_reordering(self):
        reordered = json.loads(json.dumps(_INCREMENTAL))
        reordered["sizes"][0]["cycles"].reverse()
        result = self._run(_INCREMENTAL, reordered, "--mode", "identity")
        self.assertEqual(result.returncode, 0, result.stdout)


if __name__ == "__main__":
    unittest.main()
