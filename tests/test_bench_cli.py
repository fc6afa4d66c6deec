"""Tests for the ``repro bench`` subcommand and the bench harness."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import bench
from repro.__main__ import main
from repro.bench import (
    WORKLOADS,
    check_against_baseline,
    find,
    noc_workload,
    run_bench,
)

#: tiny workload: 2x2 mesh, 60 cycles — milliseconds per kernel
TINY = ["--mesh", "2", "--rates", "0.1", "--cycles", "60", "--repeats", "1"]

BASELINE = (Path(__file__).resolve().parent.parent
            / "benchmarks" / "baseline_bench.json")


def run_one(row, size, **kwargs):
    """The record of one point, timed once, without the metrics replay."""
    kwargs.setdefault("repeats", 1)
    document = run_bench([(row, size)], collect_metrics=False, **kwargs)
    (record,) = document["points"]
    return record


def profile_text(row, size):
    lines = []
    run_bench([(row, size)], reference=False, repeats=1,
              collect_metrics=False, progress=lines.append,
              profile_slowest=True)
    return lines[-1]


def default_keys(suite, scale=1.0, cycles=1500):
    return [row.key(cycles if suite == "noc" else row.scaled(scale))
            for row in WORKLOADS if row.suite == suite]


class TestBenchHarness:
    def test_run_point_reports_speedup_and_matching_stats(self):
        record = run_one(noc_workload(2, 0.1), 60)
        assert record["optimized_cps"] > 0
        assert record["reference_cps"] > 0
        assert record["speedup"] == pytest.approx(
            record["optimized_cps"] / record["reference_cps"], rel=1e-2
        )
        assert record["stats_match"] is True
        assert record["flits_ejected"] > 0

    def test_reference_skippable(self):
        record = run_one(noc_workload(2, 0.1), 60, reference=False)
        assert record["reference_cps"] is None
        assert record["speedup"] is None
        assert record["stats_match"] is None

    def test_default_points_cover_the_acceptance_gates(self):
        keys = default_keys("noc", cycles=300)
        assert "8x8@0.02/uniform/xy/vc1/I3" in keys
        assert "8x8@0.35/uniform/xy/vc1/I3" in keys

    def test_point_key_stable(self):
        assert noc_workload(4, 0.1).key(1500) == "4x4@0.1/uniform/xy/vc1/I3"

    def test_profile_point_names_the_kernel(self):
        text = profile_text(noc_workload(2, 0.1), 40)
        assert "cProfile of the optimized kernel (2x2@0.1/" in text
        assert "step" in text
        assert "function calls" in text


class TestBaselineCheck:
    def _doc(self, speedup, key="2x2@0.1/uniform/xy/vc1/I3",
             stats_match=True):
        return {
            "schema": 1,
            "points": [{
                "key": key,
                "speedup": speedup,
                "stats_match": stats_match,
            }],
        }

    def test_clean_when_within_tolerance(self):
        problems = check_against_baseline(
            self._doc(3.0), self._doc(3.5), tolerance=0.30
        )
        assert problems == []

    def test_regression_reported(self):
        problems = check_against_baseline(
            self._doc(2.0), self._doc(4.0), tolerance=0.30
        )
        assert len(problems) == 1
        assert "fell below" in problems[0]

    def test_missing_point_reported(self):
        problems = check_against_baseline(
            self._doc(3.0, key="other"), self._doc(3.0), tolerance=0.30
        )
        assert any("missing" in p for p in problems)

    def test_diverged_stats_reported(self):
        problems = check_against_baseline(
            self._doc(5.0, stats_match=False), self._doc(3.0),
            tolerance=0.30,
        )
        assert any("diverged" in p for p in problems)

    def test_interpreter_mismatch_reported(self):
        """Speedup ratios are only comparable within one CPython
        major.minor — a baseline from another interpreter must refuse."""
        current = self._doc(3.0)
        baseline = self._doc(3.0)
        current["python"] = "3.12.1"
        baseline["python"] = "3.11.7"
        problems = check_against_baseline(current, baseline,
                                          tolerance=0.30)
        assert any("interpreter mismatch" in p for p in problems)
        # patch releases of the same minor are fine
        current["python"] = "3.11.2"
        assert check_against_baseline(current, baseline,
                                      tolerance=0.30) == []

    def test_cycle_count_mismatch_reported(self):
        """Speedups measured over different cycle counts are not
        comparable — the check must refuse rather than gate them."""
        current = self._doc(3.0)
        baseline = self._doc(3.0)
        current["points"][0]["cycles"] = 1500
        baseline["points"][0]["cycles"] = 300
        problems = check_against_baseline(current, baseline,
                                          tolerance=0.30)
        assert any("cycles" in p for p in problems)


class TestBenchCli:
    def test_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", *TINY, "--json", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["schema"] == 4
        assert document["suites"] == ["noc"]
        (point,) = document["points"]
        assert point["suite"] == "noc"
        assert point["speedup"] > 0
        assert point["stats_match"] is True
        assert "cycles/sec" in capsys.readouterr().out

    def test_bench_self_check_passes(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", *TINY, "--json", str(out)]) == 0
        assert main(["bench", *TINY, "--check", str(out)]) == 0

    def test_bench_check_fails_on_regression(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", *TINY, "--json", str(out)]) == 0
        doctored = json.loads(out.read_text())
        for point in doctored["points"]:
            point["speedup"] = point["speedup"] * 100  # unreachable bar
        out.write_text(json.dumps(doctored))
        rc = main(["bench", *TINY, "--check", str(out)])
        assert rc == 1
        assert "bench regression" in capsys.readouterr().err

    def test_bench_profile_smoke(self, capsys):
        rc = main(["bench", *TINY, "--profile"])
        assert rc == 0
        assert "cProfile" in capsys.readouterr().out

    def test_bench_profile_picks_most_loaded_point(self, capsys):
        """--profile reruns the suite's slowest optimized point: the
        largest mesh at the highest injection rate here."""
        rc = main([
            "bench", "--mesh", "2,6", "--rates", "0.02,0.3",
            "--cycles", "60", "--repeats", "1", "--no-reference",
            "--profile",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cProfile of the optimized kernel (6x6@0.3/" in out
        assert out.count("cProfile of the optimized kernel") == 1

    def test_bench_fast_caps_cycles(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--mesh", "2", "--rates", "0.1",
            "--cycles", "5000", "--fast", "--json", str(out),
        ])
        assert rc == 0
        (point,) = json.loads(out.read_text())["points"]
        assert point["cycles"] == 300

    def test_bench_no_reference(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", *TINY, "--no-reference", "--json", str(out)])
        assert rc == 0
        (point,) = json.loads(out.read_text())["points"]
        assert point["speedup"] is None

    def test_bench_rejects_bad_cycles(self):
        with pytest.raises(SystemExit):
            main(["bench", "--cycles", "0"])

    def test_bench_rejects_malformed_mesh_and_rates(self):
        with pytest.raises(SystemExit):
            main(["bench", "--mesh", "4x4"])
        with pytest.raises(SystemExit):
            main(["bench", "--mesh", ","])
        with pytest.raises(SystemExit):
            main(["bench", "--mesh", "2", "--rates", "fast"])
        with pytest.raises(SystemExit):
            main(["bench", "--mesh", "2", "--rates", "1.5"])

    def test_workload_flags_apply_without_mesh(self, tmp_path):
        """--routing/--vcs/... must reshape the default points rather
        than being silently ignored when --mesh/--rates are absent."""
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--routing", "west_first", "--vcs", "2",
            "--kind", "I2", "--pattern", "transpose",
            "--cycles", "40", "--repeats", "1", "--no-reference",
            "--json", str(out),
        ])
        assert rc == 0
        points = json.loads(out.read_text())["points"]
        assert {p["routing"] for p in points} == {"west_first"}
        assert {p["n_vcs"] for p in points} == {2}
        assert {p["kind"] for p in points} == {"I2"}
        assert {p["pattern"] for p in points} == {"transpose"}
        # the default mesh x rate gate points are preserved
        assert {(p["mesh_size"], p["injection_rate"]) for p in points} \
            == {(4, 0.10), (8, 0.02), (8, 0.35)}

    def test_committed_baseline_matches_default_points(self):
        """The checked-in baseline must gate the default bench points
        at --fast sizes (guards against the baseline going stale when
        the table changes)."""
        baseline = json.loads(BASELINE.read_text())
        for suite in ("noc", "gate", "compiled", "sweep"):
            keys = {p["key"] for p in baseline["points"]
                    if p.get("suite", "noc") == suite}
            assert keys == set(default_keys(suite, scale=0.5, cycles=300))
        assert all(p["speedup"] is not None for p in baseline["points"])

    def test_records_carry_every_baseline_field(self):
        """Each suite's records still carry every field its committed
        baseline points have, so the schema-4 file reads as-is."""
        baseline = json.loads(BASELINE.read_text())
        points = [(noc_workload(2, 0.1), 40),
                  (find("gate", "serializer-i3"), 4),
                  (find("compiled", "ringosc"), 64),
                  (find("sweep", "noop"), 8)]
        document = run_bench(points, reference=False, repeats=1)
        assert document["schema"] == baseline["schema"] == 4
        emitted = {r["suite"]: set(r) for r in document["points"]}
        assert set(emitted) == {"noc", "gate", "compiled", "sweep"}
        for point in baseline["points"]:
            missing = set(point) - emitted[point["suite"]]
            assert not missing, (point["key"], missing)


class TestGateSuiteHarness:
    def test_run_gate_point_cross_checks_kernels(self):
        record = run_one(find("gate", "serializer-i3"), 4)
        assert record["optimized_eps"] > 0
        assert record["reference_eps"] > 0
        assert record["stats_match"] is True
        assert record["speedup"] > 0
        assert record["events_executed"] > 0
        assert record["events_cancelled"] > 0  # inertial supersedes happen

    @pytest.mark.parametrize(
        "workload", ["serializer-i2", "fourphase-chain", "ringosc"]
    )
    def test_other_workloads_match_reference(self, workload):
        size = 2000 if workload == "ringosc" else 4
        record = run_one(find("gate", workload), size)
        assert record["stats_match"] is True

    def test_gate_point_key_stable(self):
        assert find("gate", "serializer-i3").key(24) == \
            "gate/serializer-i3@24"

    def test_default_gate_points_cover_the_acceptance_gate(self):
        rows = [row for row in WORKLOADS if row.suite == "gate"]
        assert rows[0].name == "serializer-i3"
        assert {row.name for row in rows} == {
            "serializer-i3", "serializer-i2", "fourphase-chain", "ringosc",
        }
        # --fast halves the workloads but never below the floor
        assert all(row.scaled(0.01) >= 4 for row in rows)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown gate workload"):
            find("gate", "warp-drive")

    def test_profile_gate_point_names_the_kernel(self):
        text = profile_text(find("gate", "serializer-i3"), 4)
        assert "run" in text
        assert "function calls" in text


class TestGateSuiteCli:
    GATE_TINY = ["--suite", "gate", "--scale", "0.01", "--repeats", "1"]

    def test_gate_suite_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", *self.GATE_TINY, "--json", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["suites"] == ["gate"]
        assert {p["suite"] for p in document["points"]} == {"gate"}
        assert all(p["stats_match"] for p in document["points"])
        assert "events/sec" in capsys.readouterr().out

    def _easy_baseline(self, document):
        """Drop the recorded speedups to a floor any machine clears —
        these tests exercise the check plumbing, not timing stability
        (micro-sized workloads are too noisy to self-gate at 30 %)."""
        for point in document["points"]:
            point["speedup"] = 0.01
        return document

    def test_gate_suite_self_check_passes(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", *self.GATE_TINY, "--json", str(out)]) == 0
        baseline = self._easy_baseline(json.loads(out.read_text()))
        out.write_text(json.dumps(baseline))
        assert main(["bench", *self.GATE_TINY, "--check", str(out)]) == 0

    def test_gate_check_skips_foreign_suite_points(self, tmp_path):
        """A gate-only run checked against a combined baseline must not
        flag the absent noc points (and vice versa)."""
        out = tmp_path / "bench.json"
        assert main(["bench", *self.GATE_TINY, "--json", str(out)]) == 0
        combined = self._easy_baseline(json.loads(out.read_text()))
        combined["points"].append({
            "suite": "noc",
            "key": "4x4@0.1/uniform/xy/vc1/I3",
            "speedup": 99.0,  # would regress if it were checked
            "cycles": 300,
            "stats_match": True,
        })
        out.write_text(json.dumps(combined))
        assert main(["bench", *self.GATE_TINY, "--check", str(out)]) == 0

    def test_gate_check_fails_on_regression(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", *self.GATE_TINY, "--json", str(out)]) == 0
        doctored = json.loads(out.read_text())
        for point in doctored["points"]:
            point["speedup"] = point["speedup"] * 100
        out.write_text(json.dumps(doctored))
        rc = main(["bench", *self.GATE_TINY, "--check", str(out)])
        assert rc == 1
        assert "bench regression" in capsys.readouterr().err

    def test_suite_all_runs_every_suite(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--suite", "all", "--mesh", "2", "--rates", "0.1",
            "--cycles", "40", "--scale", "0.01", "--repeats", "1", "--no-reference", "--json", str(out),
        ])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["suites"] == [
            "noc", "gate", "compiled", "sweep",
        ]
        assert {p["suite"] for p in document["points"]} == {
            "noc", "gate", "compiled", "sweep",
        }

    def test_gate_profile_smoke(self, capsys):
        rc = main(["bench", *self.GATE_TINY, "--no-reference", "--profile"])
        assert rc == 0
        assert "cProfile of the optimized kernel (gate/" in \
            capsys.readouterr().out

    def test_mesh_flags_rejected_for_gate_suite(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "gate", "--mesh", "2"])

    def test_bad_gate_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "gate", "--scale", "0"])

    def test_committed_baseline_is_schema_4_with_every_suite(self):
        """The committed baseline must gate every suite's speedups."""
        baseline = json.loads(BASELINE.read_text())
        assert baseline["schema"] == 4
        assert set(baseline["suites"]) == {
            "noc", "gate", "compiled", "sweep",
        }
        by_suite = {}
        for point in baseline["points"]:
            by_suite.setdefault(point["suite"], []).append(point)
        assert len(by_suite["noc"]) == 3
        assert len(by_suite["gate"]) == 4
        assert len(by_suite["compiled"]) == 2
        assert len(by_suite["sweep"]) == 1
        # the committed fabric point: --fast grid, one local worker,
        # dispatch efficiency recorded as the gateable speedup ratio
        (sweep_point,) = by_suite["sweep"]
        assert sweep_point["cycles"] == 32
        assert sweep_point["workers"] == 1
        assert 0 < sweep_point["speedup"] < 1.0
        gate_keys = {p["workload"] for p in by_suite["gate"]}
        assert "serializer-i3" in gate_keys
        # the perf acceptance gates: >= 8x aggregate lanes/sec on the
        # 64-lane fault batch, >= 1x on the single-lane ring oscillator
        compiled = {p["workload"]: p for p in by_suite["compiled"]}
        assert compiled["fault-batch"]["lanes"] == 64
        assert compiled["fault-batch"]["speedup"] >= 8.0
        assert compiled["ringosc"]["lanes"] == 1
        assert compiled["ringosc"]["speedup"] >= 1.0
        # every committed point carries a gateable speedup + clean stats
        for point in baseline["points"]:
            assert point["speedup"] > 0
            assert point["stats_match"] is True

    def test_gate_scale_rejected_for_noc_suite(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "noc", "--scale", "2.0"])


class TestCompiledSuiteCli:
    COMPILED_TINY = [
        "--suite", "compiled", "--scale", "0.005", "--repeats", "1",
    ]
    # the floor tests need the single-lane ringosc point to clear its
    # 1.0x floor, which is timing noise at 100 toggles with a single
    # repeat — best-of-3 keeps them deterministic under load
    COMPILED_TINY_GATED = COMPILED_TINY[:-1] + ["3"]

    @pytest.fixture
    def no_baseline(self, tmp_path):
        """An empty baseline: ``--check`` then enforces only the floors."""
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": 4, "points": []}))
        return str(path)

    @staticmethod
    def _set_floor(monkeypatch, suite, name, floor):
        monkeypatch.setattr(bench, "WORKLOADS", tuple(
            replace(row, floor=floor)
            if (row.suite, row.name) == (suite, name) else row
            for row in bench.WORKLOADS
        ))

    def test_compiled_suite_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", *self.COMPILED_TINY, "--json", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["suites"] == ["compiled"]
        points = {p["workload"]: p for p in document["points"]}
        assert set(points) == {"fault-batch", "ringosc"}
        assert all(p["stats_match"] for p in points.values())
        assert "lane-steps/sec" in capsys.readouterr().out

    def test_rows_carry_the_gated_floors(self):
        assert find("compiled", "fault-batch").floor == 4.0
        assert find("compiled", "ringosc").floor == 1.0
        assert find("sweep", "noop").floor == 0.002
        assert all(row.floor is None for row in WORKLOADS
                   if row.suite in ("noc", "gate"))

    def test_min_compiled_speedup_gate_passes(self, monkeypatch, capsys,
                                              no_baseline):
        self._set_floor(monkeypatch, "compiled", "fault-batch", 0.001)
        rc = main(["bench", *self.COMPILED_TINY_GATED,
                   "--check", no_baseline])
        assert rc == 0
        assert "above every row's floor" in capsys.readouterr().out

    def test_min_compiled_speedup_gate_fails(self, monkeypatch, capsys,
                                             no_baseline):
        self._set_floor(monkeypatch, "compiled", "fault-batch", 1_000_000)
        rc = main(["bench", *self.COMPILED_TINY_GATED,
                   "--check", no_baseline])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bench regression" in err
        assert "fault-batch" in err
        # the single-lane ringosc point keeps its own 1x floor
        assert "ringosc" not in err

    def test_min_compiled_speedup_needs_a_reference(self, capsys,
                                                    no_baseline):
        rc = main(["bench", *self.COMPILED_TINY, "--no-reference",
                   "--check", no_baseline])
        assert rc == 1
        assert "no speedup recorded" in capsys.readouterr().err

    def test_compiled_flags_rejected_for_other_suites(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "noc", "--scale", "0.5"])
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "compiled", "--scale", "0"])
        # the per-suite floors are table constants now, not options
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "compiled",
                  "--min-compiled-speedup", "4"])

    def test_mesh_flags_rejected_for_compiled_suite(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "compiled", "--mesh", "2"])

    def test_fast_halves_compiled_scale(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--suite", "compiled", "--fast",
                   "--repeats", "1", "--no-reference",
                   "--json", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        keys = {p["key"] for p in document["points"]}
        assert keys == {"compiled/fault-batch@6",
                        "compiled/ringosc@10000"}
