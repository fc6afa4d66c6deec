"""Bench-harness tests for the sweep (fabric scheduling-overhead) suite.

A tiny no-op grid (milliseconds) exercises the timing harness — a real
coordinator, a real file-lease transport and a real in-process worker —
plus the cross-check that the fabric's outcomes canonically match the
bare engine's.  The schema-4 gating tests pin that a sweep baseline
point rides the same regression machinery as the other suites: missing
points, diverged results, mismatched grid sizes and efficiency drops
beyond tolerance all fail the check.
"""

import pytest

from repro.bench import SCHEMA, check_against_baseline, find, run_bench

NOOP = find("sweep", "noop")
TINY_GRID = (NOOP, 8)


def run_one(reference=True):
    document = run_bench([TINY_GRID], reference=reference, repeats=1,
                         collect_metrics=False)
    (record,) = document["points"]
    return record


class TestSweepPoints:
    def test_fabric_throughput_and_matching_results(self):
        record = run_one()
        assert record["fabric_pps"] > 0
        assert record["engine_pps"] > 0
        assert record["stats_match"] is True
        assert record["speedup"] is not None and record["speedup"] > 0
        assert record["suite"] == "sweep"
        assert record["key"] == "sweep/noop@8"
        assert record["cycles"] == 8
        assert record["workers"] == 1

    def test_reference_skippable(self):
        record = run_one(reference=False)
        assert record["engine_pps"] is None
        assert record["speedup"] is None
        assert record["stats_match"] is None
        assert record["fabric_pps"] > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep workload"):
            find("sweep", "warp-drive")

    def test_default_points_scale_with_a_floor(self):
        assert NOOP.key(NOOP.size) == "sweep/noop@64"
        assert NOOP.key(NOOP.scaled(0.5)) == "sweep/noop@32"
        # the floor keeps a micro-scale run a real grid, not one point
        assert NOOP.scaled(0.01) == 8

    def test_run_bench_tags_the_suite(self):
        document = run_bench(
            [TINY_GRID], reference=False, repeats=1, collect_metrics=False,
        )
        assert document["schema"] == SCHEMA == 4
        assert document["suites"] == ["sweep"]
        assert [p["suite"] for p in document["points"]] == ["sweep"]

    def test_metrics_replay_counts_fabric_traffic(self):
        document = run_bench(
            [TINY_GRID], reference=False, repeats=1, collect_metrics=True,
        )
        metrics = document["points"][0]["metrics"]
        assert metrics["fabric.points_executed"] == 8
        assert metrics["fabric.items_claimed"] >= 1
        assert metrics["fabric.results"] == 8


class TestSweepGating:
    def _documents(self, **current_overrides):
        base_point = {
            "suite": "sweep", "key": "sweep/noop@32", "cycles": 32,
            "speedup": 0.008, "stats_match": True,
        }
        current_point = dict(base_point)
        current_point.update(current_overrides)
        baseline = {
            "schema": SCHEMA, "python": "3.11.7", "repeats": 5,
            "suites": ["sweep"], "points": [base_point],
        }
        current = {
            "schema": SCHEMA, "python": "3.11.7", "repeats": 5,
            "suites": ["sweep"], "points": [current_point],
        }
        return current, baseline

    def test_matching_run_passes(self):
        current, baseline = self._documents()
        assert check_against_baseline(current, baseline) == []

    def test_efficiency_drop_beyond_tolerance_fails(self):
        current, baseline = self._documents(speedup=0.004)
        problems = check_against_baseline(
            current, baseline, tolerance=0.30
        )
        assert len(problems) == 1
        assert "fell below" in problems[0]

    def test_grid_size_mismatch_names_the_sweep_flag(self):
        current, baseline = self._documents(
            key="sweep/noop@32", cycles=64
        )
        problems = check_against_baseline(current, baseline)
        assert len(problems) == 1
        assert "--scale" in problems[0]
        assert "grid points" in problems[0]

    def test_noc_only_run_skips_sweep_points(self):
        current, baseline = self._documents()
        current["suites"] = ["noc"]
        current["points"] = []
        assert check_against_baseline(current, baseline) == []
